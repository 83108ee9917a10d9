package main

import (
	"go/ast"
	"go/types"
)

// checkPoolReturn flags a pooled buffer obtained via pool.Get whose
// Release (or Detach) is not guaranteed on every return path of the
// obtaining function. A buffer that is never released leaks its arena
// reference permanently — the zero-copy pipeline's steady-state
// no-allocation property erodes one leak at a time, and under poisoning a
// later double-Get of the same class surfaces as corrupt frames far from
// the leak site.
//
// Release and Detach release; Retain and the B field are uses that leave
// ownership where it is; any other use — argument position, return value,
// composite literal, store, closure capture — is an ownership transfer that
// ends the obligation here (the pool package's documented transfer idiom:
// whoever holds the reference releases it). A Get whose result is
// discarded outright can never be released and is always reported.
var checkPoolReturn = &Check{
	Name: "pool-return",
	Doc:  "requires every pooled buffer obtained via pool.Get to be Released or Detached on every return path",
	Paths: []string{
		"internal/smiop", "internal/replica", "internal/srm", "internal/bench",
	},
	Run: poolObligation.run,
}

var poolObligation = &obligation{
	classify: func(info *types.Info, call *ast.CallExpr) (role, any) {
		if isPkgFunc(calleeFunc(info, call), "internal/pool", "Get") {
			return acquires, nil
		}
		recv, pkg, typ, name := methodCall(info, call)
		if pkgPathMatches(pkg, "internal/pool") && typ == "Buffer" {
			return releasesIf(name == "Release" || name == "Detach"), varKey(info, recv)
		}
		return none, nil
	},
	field:     "B", // the encoder idiom reads and rewrites it: b.B = e.Bytes()
	discarded: "pooled buffer obtained and discarded: its arena reference can never be released; assign it and Release (or defer Release)",
	leaked:    leakedVar("pooled buffer not released on every return path: add `defer %[1]s.Release()` or Release/Detach it before each return"),
}
