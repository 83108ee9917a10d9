//go:build corpusgen

package cdr

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenCDRCorpus writes the committed seed corpus for FuzzCDRDecode from
// golden values marshalled by our own encoder: one seed per TypeCode shape,
// each prefixed with its selector byte. Regenerate with:
//
//	go test -tags corpusgen -run TestGenCDRCorpus ./internal/cdr
func TestGenCDRCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCDRDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	golden := []Value{
		true,                                   // Boolean
		byte(0xA5),                             // Octet
		int16(-2),                              // Short
		uint16(65535),                          // UShort
		int32(-70000),                          // Long
		uint32(0xDEADBEEF),                     // ULong
		int64(-1 << 40),                        // LongLong
		uint64(1 << 60),                        // ULongLong
		float32(3.5),                           // Float
		float64(2.718281828459045),             // Double
		"interface Counter",                    // String
		[]Value{byte(1), byte(2), byte(3)},     // sequence<octet>
		[]Value{"inc", "get"},                  // sequence<string>
		[]Value{[]Value{uint32(1)}, []Value{}}, // sequence<sequence<ulong>>
		[]Value{1.0, 2.0, 3.0},                 // double[3]
		uint32(2),                              // enum Color::blue
		[]Value{int32(-3), int32(9)},           // struct Point
		[]Value{uint64(7), "sensor", []Value{[]Value{int64(100), 1.25}}, false}, // struct Sample
	}
	if len(golden) != len(fuzzTypeCodes) {
		t.Fatalf("golden values (%d) out of sync with fuzzTypeCodes (%d)",
			len(golden), len(fuzzTypeCodes))
	}
	for i, tc := range fuzzTypeCodes {
		for _, order := range []ByteOrder{BigEndian, LittleEndian} {
			buf, err := Marshal(tc, golden[i], order)
			if err != nil {
				t.Fatalf("%s: %v", tc, err)
			}
			seed := append([]byte{byte(i)}, buf...)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d-%s", i, order))
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Oversize length fields: a handful of bytes claiming gigabytes. The
	// decoder must reject these without allocating anywhere near the claimed
	// size (the bounded-decode lint check guards the code side; these seeds
	// guard it dynamically). All-0xFF length fields read huge in either byte
	// order.
	oversize := [][]byte{
		{10, 0xFF, 0xFF, 0xFF, 0xFF, 'x'},             // String: 4 GiB length, 1 byte present
		{11, 0xFF, 0xFF, 0xFF, 0xF0},                  // sequence<octet>: huge count, empty body
		{13, 0x7F, 0xFF, 0xFF, 0xFF, 0, 0, 0, 2},      // nested sequence: huge outer count
		{12, 0, 0, 0, 2, 0xFF, 0xFF, 0xFF, 0xFE, 'a'}, // sequence<string>: huge inner string length
	}
	for i, seed := range oversize {
		name := filepath.Join(dir, fmt.Sprintf("seed-oversize-%d", i))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Pooled-aliasing seeds: reference-heavy shapes whose decoded Values
	// would be cheapest to build as sub-slices of the input. The fuzz
	// harness stages every input in a pooled arena buffer and poisons it on
	// release, so these seeds prove the decoder copies strings and octet
	// runs out of pooled backing arrays instead of aliasing them.
	manyStrings := make([]Value, 8)
	for i := range manyStrings {
		manyStrings[i] = fmt.Sprintf("pooled-string-%d", i)
	}
	longOctets := make([]Value, 64)
	for i := range longOctets {
		longOctets[i] = byte(i)
	}
	aliasing := []struct {
		sel    byte
		tc     *TypeCode
		val    Value
		suffix string
	}{
		{11, fuzzTypeCodes[11], longOctets, "octet-run"},
		{12, fuzzTypeCodes[12], manyStrings, "string-run"},
	}
	for _, a := range aliasing {
		buf, err := Marshal(a.tc, a.val, BigEndian)
		if err != nil {
			t.Fatalf("%s: %v", a.tc, err)
		}
		seed := append([]byte{a.sel}, buf...)
		name := filepath.Join(dir, "seed-pooled-"+a.suffix)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
