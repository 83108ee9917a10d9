package cdr

import (
	"bytes"
	"math"
	"testing"

	"itdos/internal/pool"
)

// fuzzTypeCodes is the set of type shapes FuzzCDRDecode decodes against; the
// first input byte selects one. The set covers every Kind the engine
// supports, including nesting that exercises alignment and recursion.
var fuzzTypeCodes = []*TypeCode{
	Boolean,
	Octet,
	Short,
	UShort,
	Long,
	ULong,
	LongLong,
	ULongLong,
	Float,
	Double,
	String,
	SequenceOf(Octet),
	SequenceOf(String),
	SequenceOf(SequenceOf(ULong)),
	ArrayOf(Double, 3),
	EnumOf("Color", "red", "green", "blue"),
	StructOf("Point", Member{"x", Long}, Member{"y", Long}),
	StructOf("Sample",
		Member{"id", ULongLong},
		Member{"name", String},
		Member{"readings", SequenceOf(StructOf("Reading",
			Member{"when", LongLong},
			Member{"value", Double},
		))},
		Member{"flag", Boolean},
	),
}

// fuzzFloatEq is exact equality except that NaN equals NaN: fuzzed bytes
// routinely decode to NaN, and the round-trip below preserves the bit
// pattern even though NaN != NaN.
func fuzzFloatEq(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzCDRDecode feeds arbitrary bytes to the value decoder under every
// TypeCode shape and both byte orders. Byzantine replicas reach this code
// with attacker-controlled bytes, so it must never panic, hang, or
// over-allocate; anything it does accept must survive a
// marshal → unmarshal round trip unchanged.
//
// The input bytes are staged in a pooled arena buffer with release-time
// poisoning on, mirroring the zero-copy receive path where GIOP bodies
// alias opened-envelope plaintext in pooled backing arrays. A decoded
// Value must not alias the input: re-encoding it after the pooled input
// is released (and poisoned) must produce the same bytes as before. Run
// under -race to also catch read-after-recycle against pool reuse.
func FuzzCDRDecode(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{16, 0, 0, 0, 7, 0, 0, 0, 9})
	pool.SetPoison(true)
	f.Cleanup(func() { pool.SetPoison(false) })
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tc := fuzzTypeCodes[int(data[0])%len(fuzzTypeCodes)]
		for _, order := range []ByteOrder{BigEndian, LittleEndian} {
			pb := pool.Get(len(data) - 1)
			pb.B = append(pb.B, data[1:]...)
			v, err := Unmarshal(tc, pb.B, order)
			if err != nil {
				pb.Release()
				continue
			}
			buf, err := Marshal(tc, v, order)
			if err != nil {
				t.Fatalf("%s: decoded value does not re-encode: %v", tc, err)
			}
			pb.Release() // poisons the pooled input the value was decoded from
			again, err := Marshal(tc, v, order)
			if err != nil || !bytes.Equal(buf, again) {
				t.Fatalf("%s: decoded value aliases released pooled input: %q != %q (err %v)",
					tc, buf, again, err)
			}
			v2, err := Unmarshal(tc, buf, order)
			if err != nil {
				t.Fatalf("%s: re-encoded bytes do not decode: %v", tc, err)
			}
			eq, err := EqualValues(tc, v, v2, fuzzFloatEq)
			if err != nil {
				t.Fatalf("%s: comparing round-tripped values: %v", tc, err)
			}
			if !eq {
				t.Fatalf("%s: round trip changed value: %v != %v", tc, v, v2)
			}
		}
	})
}
