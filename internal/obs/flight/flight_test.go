package flight

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock is a settable deterministic clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// buildGoldenRecorder records a small deterministic C10-shaped timeline:
// ordering events on two replicas and an evidence chain on the controller
// ring (fault report → rekey → expulsion filed).
func buildGoldenRecorder() *Recorder {
	clk := &fakeClock{}
	r := NewRecorder(clk, 8)
	clk.now = 1200 * time.Microsecond
	r.Append("calc/r0", KindBatchProposed, 0, 1, 7, "n=1")
	clk.now = 2400 * time.Microsecond
	r.Append("calc/r0", KindBatchCommitted, 0, 1, 7, "")
	r.Append("calc/r2", KindBatchCommitted, 0, 1, 7, "")
	clk.now = 3100 * time.Microsecond
	r.Append("itc", KindFaultReported, 0, 0, 7, "member=calc/r2")
	clk.now = 4500 * time.Microsecond
	r.Append("itc", KindRekey, 0, 0, 0, "domain=calc")
	clk.now = 5000 * time.Microsecond
	r.Append("itc", KindExpulsionFiled, 0, 0, 0, "member=calc/r2")
	return r
}

// TestDumpGolden pins the itdos-flight/1 schema byte-for-byte: any field
// rename, reorder or re-interpretation shows up as a golden diff and must
// come with a schema bump. Regenerate with -update.
func TestDumpGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildGoldenRecorder().Snapshot("expel calc/r2").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "dump_golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/obs/flight -run DumpGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("flight dump drifted from golden (schema %s):\ngot:\n%s\nwant:\n%s",
			SchemaVersion, buf.Bytes(), want)
	}
}

// TestDumpDeterministic rebuilds the same recorder twice — appending
// identities in different first-use orders — and requires byte-identical
// dumps: Snapshot must sort, not rely on map or insertion order.
func TestDumpDeterministic(t *testing.T) {
	record := func(ids []string) []byte {
		clk := &fakeClock{}
		r := NewRecorder(clk, 8)
		for i, id := range ids {
			clk.now = time.Duration(i+1) * time.Millisecond
			r.Append(id, KindBatchCommitted, 0, uint64(i+1), 0, "")
		}
		// Second pass in fixed order so both runs hold identical events.
		for _, id := range []string{"calc/r0", "calc/r1", "calc/r2", "gm/r0"} {
			clk.now += time.Millisecond
			r.Append(id, KindRekey, 0, 0, 0, "domain=calc")
		}
		var buf bytes.Buffer
		if err := r.Snapshot("determinism").WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := record([]string{"calc/r0", "calc/r1", "calc/r2", "gm/r0"})
	b := record([]string{"gm/r0", "calc/r2", "calc/r1", "calc/r0"})
	// Different ring-creation order must not leak into the dump's
	// replica order.
	var da, db Dump
	if d, err := ReadDump(bytes.NewReader(a)); err != nil {
		t.Fatal(err)
	} else {
		da = *d
	}
	if d, err := ReadDump(bytes.NewReader(b)); err != nil {
		t.Fatal(err)
	} else {
		db = *d
	}
	idOf := func(d Dump) []string {
		var ids []string
		for _, rl := range d.Replicas {
			ids = append(ids, rl.Identity)
		}
		return ids
	}
	want := []string{"calc/r0", "calc/r1", "calc/r2", "gm/r0"}
	if !reflect.DeepEqual(idOf(da), want) || !reflect.DeepEqual(idOf(db), want) {
		t.Fatalf("replica order not sorted: %v / %v", idOf(da), idOf(db))
	}
	// And identical inputs yield identical bytes.
	c := record([]string{"calc/r0", "calc/r1", "calc/r2", "gm/r0"})
	if !bytes.Equal(a, c) {
		t.Fatalf("same appends produced different dumps:\n%s\nvs\n%s", a, c)
	}
}

// TestRingWraps checks capacity-bounded recording: oldest events drop,
// the dump says how many.
func TestRingWraps(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk, 4)
	for i := 0; i < 10; i++ {
		clk.now = time.Duration(i) * time.Millisecond
		r.Append("calc/r0", KindBatchCommitted, 0, uint64(i), 0, "")
	}
	evs := r.Events("calc/r0")
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	if evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("ring kept wrong window: first seq=%d last seq=%d", evs[0].Seq, evs[3].Seq)
	}
	if got := r.Dropped("calc/r0"); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	d := r.Snapshot("wrap")
	if d.Replicas[0].Dropped != 6 {
		t.Fatalf("dump dropped = %d, want 6", d.Replicas[0].Dropped)
	}
}

// TestNilRecorderNoOps proves the disabled recorder (the default) is a
// pure no-op at every entry point, including the derived dump.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Append("calc/r0", KindViewChange, 1, 2, 3, "x")
	if evs := r.Events("calc/r0"); evs != nil {
		t.Fatalf("nil recorder recorded %v", evs)
	}
	if n := r.Dropped("calc/r0"); n != 0 {
		t.Fatalf("nil recorder dropped %d", n)
	}
	d := r.Snapshot("nil")
	if d != nil {
		t.Fatalf("nil recorder snapshot = %+v", d)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil dump wrote %q err=%v", buf.String(), err)
	}
	if err := d.Render(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil dump rendered %q err=%v", buf.String(), err)
	}
	if NewRecorder(nil, 16) != nil {
		t.Fatal("nil clock should disable the recorder")
	}
}

// TestRender spot-checks the forensic timeline text.
func TestRender(t *testing.T) {
	var buf bytes.Buffer
	if err := buildGoldenRecorder().Snapshot("expel calc/r2").Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"flight dump \"expel calc/r2\"",
		"== calc/r0 (2 events)",
		"== itc (3 events)",
		"fault-reported",
		"member=calc/r2",
		"expulsion-filed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// The controller ring must read in causal order.
	fault := strings.Index(out, "fault-reported")
	rekey := strings.Index(out, "rekey")
	expel := strings.Index(out, "expulsion-filed")
	if !(fault < rekey && rekey < expel) {
		t.Fatalf("timeline out of causal order:\n%s", out)
	}
}

// TestReadDumpRejectsUnknownSchema guards the schema pin on the read side.
func TestReadDumpRejectsUnknownSchema(t *testing.T) {
	_, err := ReadDump(strings.NewReader(`{"schema":"itdos-flight/99","reason":"","vt_us":0,"replicas":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown dump schema") {
		t.Fatalf("err = %v, want unknown-schema", err)
	}
}

// TestKindStringsStable pins the taxonomy names dumps depend on.
func TestKindStringsStable(t *testing.T) {
	want := map[Kind]string{
		KindViewChange:       "view-change",
		KindNewView:          "new-view",
		KindBatchProposed:    "batch-proposed",
		KindBatchCommitted:   "batch-committed",
		KindVoteDecided:      "vote-decided",
		KindFaultReported:    "fault-reported",
		KindProofRejected:    "proof-rejected",
		KindFallback:         "fallback",
		KindShareTamper:      "share-tamper",
		KindRekey:            "rekey",
		KindExpulsionFiled:   "expulsion-filed",
		KindRecoveryStart:    "recovery-start",
		KindRecoveryComplete: "recovery-complete",
		KindDesync:           "desync",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind = %q", Kind(200).String())
	}
}

// BenchmarkAppendDisabled pins the cost of an append site when the
// recorder is off (the default): a nil check, a few ns at most.
func BenchmarkAppendDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Append("calc/r0", KindBatchCommitted, 0, uint64(i), 0, "")
	}
}

// BenchmarkAppendEnabled measures the hot append path with the recorder
// on (steady state: ring full, no allocation per event).
func BenchmarkAppendEnabled(b *testing.B) {
	clk := &fakeClock{}
	r := NewRecorder(clk, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append("calc/r0", KindBatchCommitted, 0, uint64(i), 0, "")
	}
}

// TestNilReceivers holds the package's contract that a nil *Recorder is the
// disabled recorder and a nil *Dump is an empty one: every exported method
// of either, called on nil with zero-valued arguments, must not panic.
func TestNilReceivers(t *testing.T) {
	for _, recv := range []any{(*Recorder)(nil), (*Dump)(nil)} {
		v := reflect.ValueOf(recv)
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Type().Method(i)
			args := make([]reflect.Value, m.Type.NumIn()-1)
			for j := range args {
				args[j] = reflect.Zero(m.Type.In(j + 1))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("nil %s.%s panics: %v", v.Type(), m.Name, p)
					}
				}()
				v.Method(i).Call(args)
			}()
		}
	}
}
