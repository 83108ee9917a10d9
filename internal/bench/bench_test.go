package bench

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment harness is the reproduction's evaluation: these tests pin
// the *shape* of each result (who wins, growth directions, crossovers) so
// a regression in any protocol layer surfaces as a changed conclusion, not
// just a changed number.

func cell(t *testing.T, tbl *Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tbl.ID, row, col)
	}
	return tbl.Rows[row][col]
}

func numCell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	s := cell(t, tbl, row, col)
	s = strings.TrimSuffix(strings.Fields(s)[0], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tbl.ID, row, col, s)
	}
	return v
}

func TestF1ByzantineMasked(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := F1()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if cell(t, tbl, i, 2) != "true" {
			t.Fatalf("row %d: result incorrect", i)
		}
	}
	// Cost is not inflated by the traitor.
	if numCell(t, tbl, 1, 3) > numCell(t, tbl, 0, 3)*1.5 {
		t.Fatal("Byzantine replica inflated call cost")
	}
}

func TestF3ColdVsWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := F3()
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := numCell(t, tbl, 0, 1), numCell(t, tbl, 1, 1)
	if cold < 2*warm {
		t.Fatalf("establishment not heavyweight: cold %v vs warm %v", cold, warm)
	}
}

func TestC1SuperlinearGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := C1()
	if err != nil {
		t.Fatal(err)
	}
	first := numCell(t, tbl, 0, 2)
	last := numCell(t, tbl, len(tbl.Rows)-1, 2)
	n0 := numCell(t, tbl, 0, 0)
	n1 := numCell(t, tbl, len(tbl.Rows)-1, 0)
	// Superlinear: message growth outpaces group growth.
	if last/first <= n1/n0 {
		t.Fatalf("ordering cost not superlinear: msgs %.1f→%.1f for n %.0f→%.0f",
			first, last, n0, n1)
	}
}

func TestC2VotingMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := C2()
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{
		{"decided", "decided", "decided"},
		{"decided", "decided", "decided"},
		{"stalled", "decided", "decided"},
		{"stalled", "stalled", "decided"},
	}
	for i, w := range want {
		for j := 0; j < 3; j++ {
			if got := cell(t, tbl, i, j+1); got != w[j] {
				t.Errorf("row %d col %d: %s, want %s", i, j+1, got, w[j])
			}
		}
	}
}

func TestC4WaitAllStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := C4()
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tbl, 0, 2) != "decided" || cell(t, tbl, 2, 2) != "STALLED" {
		t.Fatalf("wait-policy outcomes wrong: %v", tbl.Rows)
	}
}

func TestC5Amortisation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := C5()
	if err != nil {
		t.Fatal(err)
	}
	first := numCell(t, tbl, 0, 2)
	last := numCell(t, tbl, len(tbl.Rows)-1, 2)
	if last >= first/2 {
		t.Fatalf("reuse did not amortise: %.1f → %.1f msgs/call", first, last)
	}
}

func TestC6QueueSyncConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := C6()
	if err != nil {
		t.Fatal(err)
	}
	// Queue-sync bytes identical across object sizes; blob grows.
	q0 := numCell(t, tbl, 0, 2)
	qn := numCell(t, tbl, len(tbl.Rows)-1, 2)
	if q0 != qn {
		t.Fatalf("queue-sync bytes vary with object size: %v vs %v", q0, qn)
	}
	b0 := numCell(t, tbl, 0, 1)
	bn := numCell(t, tbl, len(tbl.Rows)-1, 1)
	if bn < 100*b0 {
		t.Fatalf("blob transfer did not grow with state: %v → %v", b0, bn)
	}
}

func TestC7NoExposure(t *testing.T) {
	tbl, err := C7()
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tbl, 1, 1) != "0" {
		t.Fatalf("DPRF exposed keys: %s", cell(t, tbl, 1, 1))
	}
	if cell(t, tbl, 1, 2) != "100/100" {
		t.Fatalf("tampering not fully detected: %s", cell(t, tbl, 1, 2))
	}
}

func TestA2GMReplicationAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := A2()
	if err != nil {
		t.Fatal(err)
	}
	expect := []string{"established", "FAILED", "established", "established", "FAILED"}
	for i, w := range expect {
		if got := cell(t, tbl, i, 2); got != w {
			t.Errorf("row %d: %s, want %s", i, got, w)
		}
	}
}

func TestA3AdaptiveAlwaysDecides(t *testing.T) {
	tbl, err := A3()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		if cell(t, tbl, i, 3) != "decided" {
			t.Errorf("row %d: adaptive voter stalled", i)
		}
	}
	// The tight fixed voter must stall somewhere the adaptive one decides.
	sawStall := false
	for i := range tbl.Rows {
		if cell(t, tbl, i, 1) == "stalled" {
			sawStall = true
		}
	}
	if !sawStall {
		t.Error("fixed tight ε never stalled; experiment lost its contrast")
	}
}

func TestX1LinearInObjectSize(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regression: skipped in -short")
	}
	tbl, err := X1()
	if err != nil {
		t.Fatal(err)
	}
	b0 := numCell(t, tbl, 1, 3) // 64 KiB row
	bn := numCell(t, tbl, 3, 3) // 1 MiB row
	ratio := bn / b0
	if ratio < 8 || ratio > 32 { // 16x size growth → roughly 16x bytes
		t.Fatalf("wire bytes not roughly linear in object size: ratio %.1f", ratio)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "T", Title: "title", Source: "src", Note: "note",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
	}
	txt := tbl.Render()
	for _, want := range []string{"T — title", "a", "bb", "note"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Render missing %q", want)
		}
	}
	mdown := tbl.Markdown()
	if !strings.Contains(mdown, "| a | bb |") || !strings.Contains(mdown, "### T") {
		t.Errorf("Markdown malformed:\n%s", mdown)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("c1"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := ByID("Z9"); ok {
		t.Error("unknown id resolved")
	}
	if len(All()) != 22 {
		t.Errorf("experiment count = %d", len(All()))
	}
}
