//go:build corpusgen

package srm

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenQueueSnapshotCorpus writes the committed seed corpus for
// FuzzQueueSnapshot (see snapshotSeeds). Regenerate with:
//
//	go test -tags corpusgen -run TestGenQueueSnapshotCorpus ./internal/srm
func TestGenQueueSnapshotCorpus(t *testing.T) { writeCorpus(t, "FuzzQueueSnapshot", snapshotSeeds()) }

// TestGenSRMPackCorpus writes the committed seed corpus for FuzzSRMPack (see
// packSeeds).
func TestGenSRMPackCorpus(t *testing.T) { writeCorpus(t, "FuzzSRMPack", packSeeds()) }

func writeCorpus(t *testing.T, fuzz string, seeds [][]byte) {
	dir := filepath.Join("testdata", "fuzz", fuzz)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
