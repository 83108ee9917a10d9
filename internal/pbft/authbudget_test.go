package pbft

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

// authBudget is the committed count of authentication operations an ordered
// request costs the whole group plus its clients, per workload. On netsim
// the counts repeat exactly, so any rise is a regression. Regenerate with:
//
//	go test ./internal/pbft -run TestAuthBudget -update-auth-budget
type authBudget struct {
	Workloads map[string]authCounts `json:"workloads"`
}

// authCounts totals a run: signatures made, signatures verified, and tags
// made or checked, over Requests ordered requests.
type authCounts struct {
	Requests int `json:"requests"`
	Signs    int `json:"signs"`
	Verifies int `json:"verifies"`
	MACs     int `json:"macs"`
}

const authBudgetPath = "testdata/auth_budget.json"

var updateAuthBudget = flag.Bool("update-auth-budget", false,
	"rewrite testdata/auth_budget.json with current counts")

// measureAuth orders rounds requests from each of senders concurrent clients
// through an n=4 group and totals every party's authenticator.
func measureAuth(t *testing.T, senders, maxBatch, rounds int) authCounts {
	t.Helper()
	cg := newCountedGroup(t, senders, maxBatch)
	for i := 0; i < rounds; i++ {
		for j, cli := range cg.cli {
			if _, err := cli.Invoke([]byte(fmt.Sprintf("op-%d-%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
		cg.net.Run(1_000_000)
	}
	total := authCounts{Requests: senders * rounds}
	if cg.results != total.Requests {
		t.Fatalf("%d of %d invocations completed", cg.results, total.Requests)
	}
	for _, a := range append(cg.replicas, cg.clients...) {
		total.Signs += a.signs
		total.Verifies += a.verifies
		total.MACs += a.macs + a.macChecks
	}
	return total
}

// TestAuthBudget gates what authentication costs per ordered request (run by
// make check): one sender unbatched, and sixteen senders filling batches of
// sixteen.
func TestAuthBudget(t *testing.T) {
	measured := map[string]authCounts{
		"n4_1sender_unbatched": measureAuth(t, 1, 1, 32),
		"n4_16senders_batch16": measureAuth(t, 16, 16, 8),
	}
	if *updateAuthBudget {
		out, err := json.MarshalIndent(authBudget{Workloads: measured}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(authBudgetPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("budget rewritten: %+v", measured)
		return
	}
	raw, err := os.ReadFile(authBudgetPath)
	if err != nil {
		t.Fatalf("no committed budget (run with -update-auth-budget): %v", err)
	}
	var budget authBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	for name, got := range measured {
		want, ok := budget.Workloads[name]
		if !ok || want.Requests != got.Requests {
			t.Errorf("%s: no committed budget for %d requests (run with -update-auth-budget)", name, got.Requests)
			continue
		}
		per := func(n int) float64 { return float64(n) / float64(got.Requests) }
		t.Logf("%s: per request %.2f signatures, %.2f verifications, %.2f tags",
			name, per(got.Signs), per(got.Verifies), per(got.MACs))
		if got.Signs > want.Signs || got.Verifies > want.Verifies || got.MACs > want.MACs {
			t.Errorf("%s: %+v exceeds the committed budget %+v", name, got, want)
		}
	}
}

// The four operations the budget counts, on this box.

func benchAuthPair(b *testing.B) (*Ed25519Auth, *Ed25519Auth, []byte) {
	b.Helper()
	ring := NewKeyring()
	auths := make([]*Ed25519Auth, 2)
	for i, id := range Identities("grp", 2) {
		priv, err := DeriveIdentity(id, []byte("bench"), ring)
		if err != nil {
			b.Fatal(err)
		}
		auths[i] = NewEd25519Auth(id, priv, ring)
	}
	return auths[0], auths[1], signingBytes(&Commit{View: 3, Seq: 99, Digest: Digest{1}, Replica: 0})
}

var benchSink []byte

// authSizes are the signed lengths the sign and verify benchmarks run at, an
// add_small-sized message and an echo_16k payload, each hashed first as a
// message without a cached digest is.
var authSizes = []struct {
	name string
	n    int
}{{"128B", 128}, {"16KiB", 16 << 10}}

func BenchmarkAuthSign(b *testing.B) {
	a, _, _ := benchAuthPair(b)
	for _, size := range authSizes {
		b.Run(size.name, func(b *testing.B) {
			msg := make([]byte, size.n)
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = a.Sign(sha256.Sum256(msg))
			}
		})
	}
}

func BenchmarkAuthVerify(b *testing.B) {
	a, peer, _ := benchAuthPair(b)
	for _, size := range authSizes {
		b.Run(size.name, func(b *testing.B) {
			msg := make([]byte, size.n)
			sig := a.Sign(sha256.Sum256(msg))
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !peer.Verify(a.Identity(), sha256.Sum256(msg), sig) {
					b.Fatal("signature rejected")
				}
			}
		})
	}
}

func BenchmarkAuthMAC(b *testing.B) {
	a, peer, msg := benchAuthPair(b)
	a.MAC(peer.Identity(), msg) // derive the pair key outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = a.MAC(peer.Identity(), msg)
	}
}

func BenchmarkAuthVerifyMAC(b *testing.B) {
	a, peer, msg := benchAuthPair(b)
	tag := a.MAC(peer.Identity(), msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !peer.VerifyMAC(a.Identity(), msg, tag) {
			b.Fatal("tag rejected")
		}
	}
}

func BenchmarkAuthPairKey(b *testing.B) {
	a, peer, _ := benchAuthPair(b)
	pub := peer.priv.Public().(ed25519.PublicKey)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key, err := derivePairKey(a.identity, a.scalar, peer.identity, pub)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = key
	}
}
