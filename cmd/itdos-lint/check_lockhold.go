package main

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkLockHold flags a sync.Mutex/RWMutex locked without a matching
// defer-unlock or an unlock before every later return. A mutex has no
// variable to follow, so the obligation is keyed by the receiver as written
// (`r.mu`) and by mode: an RLock is closed only by an RUnlock.
var checkLockHold = &Check{
	Name: "lock-hold",
	Doc:  "requires every mutex Lock to be released by defer or on every return path",
	Run:  lockObligation.run,
}

// lockKey names one mutex in one mode; r is "R" for the read side.
type lockKey struct{ sel, r string }

var lockObligation = &obligation{
	classify: func(info *types.Info, call *ast.CallExpr) (role, any) {
		recv, pkg, typ, name := methodCall(info, call)
		if pkg != "sync" || typ != "Mutex" && typ != "RWMutex" {
			return none, nil
		}
		sel := types.ExprString(recv)
		switch name {
		case "Lock":
			return acquires, lockKey{sel, ""}
		case "RLock":
			return acquires, lockKey{sel, "R"}
		case "Unlock":
			return releases, lockKey{sel, ""}
		case "RUnlock":
			return releases, lockKey{sel, "R"}
		}
		return none, nil
	},
	leaked: func(key any) string {
		k := key.(lockKey)
		return fmt.Sprintf("%s.%sLock() without a dominating Unlock: add `defer %s.%sUnlock()` or release on every return path", k.sel, k.r, k.sel, k.r)
	},
}
