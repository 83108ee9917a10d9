//go:build corpusgen

package seckey

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenSeckeyCorpus writes the committed seed corpus for FuzzSealedOpen.
// Because the fuzz input doubles as raw sealed bytes and as plaintext, the
// seeds include genuine Seal output (deterministic: the nonce is derived
// from key, context and sequence number) so the fuzzer starts past the tag
// check with small mutations. Regenerate with:
//
//	go test -tags corpusgen -run TestGenSeckeyCorpus ./internal/seckey
func TestGenSeckeyCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSealedOpen")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	key := fuzzChannelKey()
	sealedShort, err := NewChannel(key, "fuzz").Seal([]byte("GIOP request bytes"))
	if err != nil {
		t.Fatal(err)
	}
	sealedEmpty, err := NewChannel(key, "fuzz").Seal(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Oversize length field: genuine sealed bytes whose plaintext-length
	// header (u32 at offset 8) claims 4 GiB. Open must reject the
	// length/buffer mismatch before allocating or authenticating.
	oversizeLen := append([]byte(nil), sealedShort...)
	oversizeLen[8], oversizeLen[9], oversizeLen[10], oversizeLen[11] = 0xFF, 0xFF, 0xFF, 0xFF
	seeds := [][]byte{
		nil,
		[]byte("increment(counter-1)"),
		sealedShort,
		sealedEmpty,
		make([]byte, SealedLen(0)), // minimum sealed length, all zero
		oversizeLen,
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
