// Package bench implements the experiment harness that regenerates every
// figure-scenario and quantitative-claim table of the reproduction (see
// DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// results). Each experiment builds a fresh deterministic deployment, runs
// its workload, and reports a table; cmd/itdos-bench prints the tables and
// the root bench_test.go wraps the same scenarios as testing.B benchmarks.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/idl"
	"itdos/internal/itc"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/orb"
	"itdos/internal/replica"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Source  string // where in the paper the claim/figure lives
	Note    string
	Headers []string
	Rows    [][]string

	// Metrics, when set, is the registry the experiment observed; JSON
	// output digests its histograms into p50/p95/p99 summaries. Render
	// ignores it, so recorded text tables are unaffected.
	Metrics *obs.Registry

	// Artifacts are extra machine-readable files the experiment produced
	// (e.g. flight dumps), keyed by file name. Render and JSON ignore
	// them; itdos-bench writes each alongside the BENCH_*.json.
	Artifacts map[string][]byte
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "source: %s\n", t.Source)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Markdown renders the table as GitHub markdown (for EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Source: %s*\n\n", t.Source)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Headers, " | "))
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n%s\n", t.Note)
	}
	return b.String()
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"F1", "nominal configuration (Figure 1)", F1},
		{"F2", "protocol stack breakdown (Figure 2)", F2},
		{"F3", "connection establishment (Figure 3)", F3},
		{"C1", "ordering group size sweep", C1},
		{"C2", "heterogeneous voting", C2},
		{"C3", "inexact voting boundary", C3},
		{"C4", "voter wait policies", C4},
		{"C5", "connection reuse amortisation", C5},
		{"C6", "queue sync vs state transfer", C6},
		{"C7", "threshold keying exposure", C7},
		{"C8", "fault detection and expulsion", C8},
		{"C9", "campaign: slow compromise vs overt collusion", C9},
		{"C10", "campaign: lying designated responder under churn", C10},
		{"C11", "campaign: compromised-then-recovered replica", C11},
		{"A1", "two-thread model under nesting", A1},
		{"A2", "Group Manager replication", A2},
		{"A3", "adaptive voting", A3},
		{"X1", "large-object transfer (extension)", X1},
		{"P1", "offered load vs amortised ordering cost", P1},
		{"P2", "digest replies on the large-object workload", P2},
		{"P3", "read-only fast path vs ordered invocation", P3},
		{"P4", "seal-chain heap cost: pooled vs copying pipeline", P4},
		{"P5", "tentative execution vs committed replies", P5},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared scenario builders ---

const calcIface = "IDL:bench/Calc:1.0"

// calcRef is the object every calc-domain scenario invokes.
var calcRef = orb.ObjectRef{Domain: "calc", ObjectKey: "calc", Interface: calcIface}

// keySeed derives the keys of the bare ordering groups C1, C6 and P1 build.
var keySeed = []byte("itdos-bench")

func calcRegistry() *idl.Registry {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(calcIface).
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}).
		Op("echo",
			[]idl.Param{{Name: "s", Type: cdr.String}},
			[]idl.Param{{Name: "out", Type: cdr.String}}))
	return reg
}

func calcServant() orb.Servant {
	return orb.ServantFunc(func(_ *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
		switch op {
		case "add":
			return []cdr.Value{args[0].(float64) + args[1].(float64)}, nil
		case "echo":
			return []cdr.Value{args[0]}, nil
		}
		return nil, orb.ErrBadOperation
	})
}

type calcOpts struct {
	n, f       int
	gmN, gmF   int
	profiles   []replica.Profile
	epsilon    float64
	byteVoting bool
	digest     bool
	itc        *itc.Config
	checkpoint uint64
	servant    func(member int) orb.Servant
	seed       int64
	metrics    *obs.Registry    // nil → a fresh registry per system
	flight     *flight.Recorder // nil → recording disabled (the default)
}

func mixedProfiles(n int, jitter float64) []replica.Profile {
	out := make([]replica.Profile, n)
	oses := []string{"solaris", "linux", "aix", "hpux", "irix", "tru64"}
	langs := []string{"cpp", "java", "ada", "go", "ml", "lisp"}
	for i := range out {
		order := cdr.BigEndian
		if i%2 == 1 {
			order = cdr.LittleEndian
		}
		out[i] = replica.Profile{
			Order: order, FloatJitter: jitter,
			OS: oses[i%len(oses)], Lang: langs[i%len(langs)],
		}
	}
	return out
}

func newCalcSystem(opts calcOpts) (*replica.System, error) {
	if opts.n == 0 {
		opts.n, opts.f = 4, 1
	}
	if opts.gmN == 0 {
		opts.gmN, opts.gmF = 4, 1
	}
	if opts.profiles == nil {
		opts.profiles = mixedProfiles(opts.n, 0)
	}
	if opts.seed == 0 {
		opts.seed = 1
	}
	if opts.servant == nil {
		opts.servant = func(int) orb.Servant { return calcServant() }
	}
	if opts.metrics == nil {
		opts.metrics = obs.NewRegistry()
	}
	return replica.NewSystem(replica.SystemConfig{
		Seed:               opts.seed,
		Latency:            netsim.UniformLatency(time.Millisecond, 3*time.Millisecond),
		Registry:           calcRegistry(),
		Metrics:            opts.metrics,
		Flight:             opts.flight,
		GM:                 replica.GroupSpec{N: opts.gmN, F: opts.gmF},
		Epsilon:            opts.epsilon,
		ByteVoting:         opts.byteVoting,
		DigestReplies:      opts.digest,
		ITC:                opts.itc,
		CheckpointInterval: opts.checkpoint,
		Domains: []replica.DomainSpec{{
			Name: "calc", N: opts.n, F: opts.f,
			Profiles: opts.profiles,
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("calc", calcIface, opts.servant(member))
			},
		}},
		Clients: []replica.ClientSpec{{Name: "alice"}},
	})
}

// netDelta captures traffic between two points.
type netDelta struct {
	net    *netsim.Network
	before netsim.Stats
	t0     time.Duration
}

func snap(net *netsim.Network) *netDelta {
	return &netDelta{net: net, before: net.Stats(), t0: net.Now()}
}

func (d *netDelta) msgs() uint64           { return d.net.Stats().MessagesSent - d.before.MessagesSent }
func (d *netDelta) bytes() uint64          { return d.net.Stats().BytesSent - d.before.BytesSent }
func (d *netDelta) elapsed() time.Duration { return d.net.Now() - d.t0 }

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d.Microseconds())/1000)
}

// kindCounter taps the network and counts decoded message kinds.
type kindCounter struct {
	counts map[string]uint64
	bytes  map[string]uint64
}

func newKindCounter(net *netsim.Network, classify func(payload []byte) string) *kindCounter {
	kc := &kindCounter{counts: make(map[string]uint64), bytes: make(map[string]uint64)}
	net.AddFilter(func(_, _ netsim.NodeID, payload []byte) ([]byte, bool) {
		kind := classify(payload)
		kc.counts[kind]++
		kc.bytes[kind] += uint64(len(payload))
		return nil, false
	})
	return kc
}

func (kc *kindCounter) sortedKinds() []string {
	out := make([]string, 0, len(kc.counts))
	for k := range kc.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
