package replica

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/obs"
)

// smiopBudget is the committed count of data-layer authentication
// operations a call costs above the ordering layer's own (those are
// internal/pbft's budget): signatures made by callers and elements, payload
// signatures checked by the elements and by the callers, and copies admitted
// without a check of their own. On netsim the counts repeat exactly.
// Regenerate with:
//
//	go test ./internal/replica -run TestAuthBudget -update-auth-budget
type smiopBudget struct {
	Workloads map[string]smiopCounts `json:"workloads"`
}

type smiopCounts struct {
	Calls int `json:"calls"`
	// Signs is data and digest signatures made, callers and elements.
	Signs int `json:"signs"`
	// ElementVerifies is payload signatures checked on request copies,
	// CallerVerifies on reply copies (passed or failed); CallerMemo reply
	// copies were admitted by the root memo, with no Ed25519 check of their
	// own.
	ElementVerifies int `json:"element_verifies"`
	CallerVerifies  int `json:"caller_verifies"`
	CallerMemo      int `json:"caller_memo"`
	// Vouched copies were admitted on the ordering layer's authentication of
	// their sender; LateEqual reply copies arrived after their vote decided
	// and equalled the decision.
	Vouched   int `json:"vouched"`
	LateEqual int `json:"late_equal"`
}

const smiopBudgetPath = "testdata/auth_budget.json"

var updateAuthBudget = flag.Bool("update-auth-budget", false,
	"rewrite testdata/auth_budget.json with current counts")

// sigChecks reads smiop_sig_checks_total for one outcome on one side of a
// call: "acceptor" streams vote request copies, "initiator" streams replies.
func sigChecks(reg *obs.Registry, outcome, side string) int {
	return int(reg.Counter("smiop_sig_checks_total", "outcome="+outcome, "stream="+side).Value())
}

// measureSMIOPAuth drives rounds of one add() from each of clients singleton
// clients through an n=4 domain and totals the data-layer counters.
func measureSMIOPAuth(t *testing.T, clients, maxBatch, rounds int) smiopCounts {
	t.Helper()
	ts := newKVSystem(t, 77, func(cfg *SystemConfig) {
		cfg.MaxBatch = maxBatch
		cfg.Clients = nil
		for i := 0; i < clients; i++ {
			cfg.Clients = append(cfg.Clients, ClientSpec{Name: fmt.Sprintf("c%02d", i)})
		}
	})
	for r := 0; r < rounds; r++ {
		var calls []*Async
		for i := 0; i < clients; i++ {
			cl := ts.sys.Client(fmt.Sprintf("c%02d", i))
			calls = append(calls, cl.Go(func() error {
				res, err := cl.Call(kvRef, "add", []cdr.Value{1.0, 2.0})
				if err == nil && res[0].(float64) != 3.0 {
					err = fmt.Errorf("add decided %v", res[0])
				}
				return err
			}))
		}
		if err := ts.sys.RunUntil(func() bool {
			for _, c := range calls {
				if !c.Done() {
					return false
				}
			}
			return true
		}, 50_000_000); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for _, c := range calls {
			if c.Err() != nil {
				t.Fatalf("round %d: %v", r, c.Err())
			}
		}
		ts.sys.Net.Run(5_000_000) // late copies are part of the bill
	}
	reg := ts.metrics
	return smiopCounts{
		Calls:           clients * rounds,
		Signs:           int(reg.Counter("smiop_signatures_total").Value()),
		ElementVerifies: sigChecks(reg, "verified", "acceptor") + sigChecks(reg, "rejected", "acceptor"),
		CallerVerifies:  sigChecks(reg, "verified", "initiator") + sigChecks(reg, "rejected", "initiator"),
		CallerMemo:      sigChecks(reg, "memo", "initiator"),
		Vouched:         sigChecks(reg, "vouched", "acceptor") + sigChecks(reg, "vouched", "initiator"),
		LateEqual:       sigChecks(reg, "late_equal", "initiator"),
	}
}

// TestAuthBudget gates what a call costs in data-layer authentication (run
// by make check, next to internal/pbft's): one client unbatched, and sixteen
// clients filling batches of sixteen. An ordered request copy is
// authenticated once, by the ordering layer: the elements check no payload
// signature of their own.
func TestAuthBudget(t *testing.T) {
	measured := map[string]smiopCounts{
		"n4_1client_unbatched": measureSMIOPAuth(t, 1, 0, 32),
		"n4_16clients_batch16": measureSMIOPAuth(t, 16, 16, 8),
	}
	for name, got := range measured {
		if got.ElementVerifies != 0 {
			t.Errorf("%s: elements checked %d payload signatures on ordered copies, want 0", name, got.ElementVerifies)
		}
	}
	if *updateAuthBudget {
		out, err := json.MarshalIndent(smiopBudget{Workloads: measured}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(smiopBudgetPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("budget rewritten: %+v", measured)
		return
	}
	raw, err := os.ReadFile(smiopBudgetPath)
	if err != nil {
		t.Fatalf("no committed budget (run with -update-auth-budget): %v", err)
	}
	var budget smiopBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	for name, got := range measured {
		want, ok := budget.Workloads[name]
		if !ok || want.Calls != got.Calls {
			t.Errorf("%s: no committed budget for %d calls (run with -update-auth-budget)", name, got.Calls)
			continue
		}
		per := func(n int) float64 { return float64(n) / float64(got.Calls) }
		t.Logf("%s: per call %.2f signatures, %.2f element and %.2f caller verifications, %.2f memo hits, %.2f vouched, %.2f late-equal",
			name, per(got.Signs), per(got.ElementVerifies), per(got.CallerVerifies), per(got.CallerMemo),
			per(got.Vouched), per(got.LateEqual))
		if got.Signs > want.Signs || got.ElementVerifies > want.ElementVerifies || got.CallerVerifies > want.CallerVerifies {
			t.Errorf("%s: %+v exceeds the committed budget %+v", name, got, want)
		}
	}
}
