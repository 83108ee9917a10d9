package cdr

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		e := NewEncoder(order)
		e.WriteBoolean(true)
		e.WriteOctet(0xAB)
		e.WriteShort(-1234)
		e.WriteUShort(54321)
		e.WriteLong(-123456789)
		e.WriteULong(4000000000)
		e.WriteLongLong(-1234567890123456789)
		e.WriteULongLong(18000000000000000000)
		e.WriteFloat(3.5)
		e.WriteDouble(-2.25e100)
		e.WriteString("hello, world")
		e.WriteOctets([]byte{1, 2, 3})

		d := NewDecoder(e.Bytes(), order)
		if v, err := d.ReadBoolean(); err != nil || v != true {
			t.Fatalf("boolean (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadOctet(); err != nil || v != 0xAB {
			t.Fatalf("octet (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadShort(); err != nil || v != -1234 {
			t.Fatalf("short (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadUShort(); err != nil || v != 54321 {
			t.Fatalf("ushort (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadLong(); err != nil || v != -123456789 {
			t.Fatalf("long (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadULong(); err != nil || v != 4000000000 {
			t.Fatalf("ulong (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadLongLong(); err != nil || v != -1234567890123456789 {
			t.Fatalf("longlong (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadULongLong(); err != nil || v != 18000000000000000000 {
			t.Fatalf("ulonglong (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadFloat(); err != nil || v != 3.5 {
			t.Fatalf("float (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadDouble(); err != nil || v != -2.25e100 {
			t.Fatalf("double (%s): got %v, %v", order, v, err)
		}
		if v, err := d.ReadString(); err != nil || v != "hello, world" {
			t.Fatalf("string (%s): got %q, %v", order, v, err)
		}
		if v, err := d.ReadOctets(); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
			t.Fatalf("octets (%s): got %v, %v", order, v, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("(%s) %d bytes left over", order, d.Remaining())
		}
	}
}

func TestAlignment(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(1) // offset 0
	e.WriteULong(7) // must pad to offset 4
	if got := e.Len(); got != 8 {
		t.Fatalf("encoded length = %d, want 8 (3 pad bytes)", got)
	}
	if !bytes.Equal(e.Bytes()[1:4], []byte{0, 0, 0}) {
		t.Fatalf("padding bytes not zero: %v", e.Bytes())
	}
	e.WriteOctet(2)    // offset 8
	e.WriteDouble(1.5) // pads to 16
	if got := e.Len(); got != 24 {
		t.Fatalf("encoded length = %d, want 24", got)
	}

	d := NewDecoder(e.Bytes(), BigEndian)
	if v, _ := d.ReadOctet(); v != 1 {
		t.Fatalf("octet = %d", v)
	}
	if v, _ := d.ReadULong(); v != 7 {
		t.Fatalf("ulong = %d", v)
	}
	if v, _ := d.ReadOctet(); v != 2 {
		t.Fatalf("octet2 = %d", v)
	}
	if v, _ := d.ReadDouble(); v != 1.5 {
		t.Fatalf("double = %v", v)
	}
}

func TestEndiannessProducesDifferentBytes(t *testing.T) {
	// The heterogeneity premise of the paper: identical values, different
	// byte streams.
	be, err := Marshal(ULong, uint32(0x01020304), BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	le, err := Marshal(ULong, uint32(0x01020304), LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(be, le) {
		t.Fatal("big- and little-endian encodings should differ")
	}
	vbe, err := Unmarshal(ULong, be, BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	vle, err := Unmarshal(ULong, le, LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if vbe != vle {
		t.Fatalf("values differ after unmarshalling: %v vs %v", vbe, vle)
	}
}

var pointTC = StructOf("Point",
	Member{Name: "x", Type: Double},
	Member{Name: "y", Type: Double},
	Member{Name: "label", Type: String},
)

func TestStructRoundTrip(t *testing.T) {
	v := []Value{1.5, -2.5, "origin-ish"}
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		buf, err := Marshal(pointTC, v, order)
		if err != nil {
			t.Fatalf("marshal (%s): %v", order, err)
		}
		got, err := Unmarshal(pointTC, buf, order)
		if err != nil {
			t.Fatalf("unmarshal (%s): %v", order, err)
		}
		eq, err := EqualValues(pointTC, v, got, nil)
		if err != nil {
			t.Fatalf("compare (%s): %v", order, err)
		}
		if !eq {
			t.Fatalf("round trip (%s): got %v, want %v", order, got, v)
		}
	}
}

func TestSequenceAndArrayRoundTrip(t *testing.T) {
	seqTC := SequenceOf(Long)
	arrTC := ArrayOf(String, 3)

	seq := []Value{int32(1), int32(-2), int32(3)}
	arr := []Value{"a", "bb", "ccc"}

	for _, tc := range []struct {
		tc *TypeCode
		v  Value
	}{{seqTC, seq}, {arrTC, arr}} {
		buf, err := Marshal(tc.tc, tc.v, LittleEndian)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.tc, err)
		}
		got, err := Unmarshal(tc.tc, buf, LittleEndian)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.tc, err)
		}
		eq, err := EqualValues(tc.tc, tc.v, got, nil)
		if err != nil || !eq {
			t.Fatalf("%s: round trip mismatch: %v (err %v)", tc.tc, got, err)
		}
	}
}

func TestEnumRoundTrip(t *testing.T) {
	tc := EnumOf("Color", "red", "green", "blue")
	buf, err := Marshal(tc, uint32(2), BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(tc, buf, BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	if got != uint32(2) {
		t.Fatalf("got %v", got)
	}
	if _, err := Marshal(tc, uint32(3), BigEndian); err == nil {
		t.Fatal("out-of-range enum ordinal should fail to marshal")
	}
	bad, _ := Marshal(ULong, uint32(9), BigEndian)
	if _, err := Unmarshal(tc, bad, BigEndian); err == nil {
		t.Fatal("out-of-range enum ordinal should fail to unmarshal")
	}
}

func TestTruncatedStreams(t *testing.T) {
	full, err := Marshal(pointTC, []Value{1.0, 2.0, "z"}, BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := Unmarshal(pointTC, full[:cut], BigEndian); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(full))
		}
	}
}

func TestBoundedSequence(t *testing.T) {
	tc := &TypeCode{Kind: KindSequence, Elem: Octet, Length: 2}
	if _, err := Marshal(tc, []Value{byte(1), byte(2), byte(3)}, BigEndian); err == nil {
		t.Fatal("over-bound sequence should fail to marshal")
	}
	inner, _ := Marshal(SequenceOf(Octet), []Value{byte(1), byte(2), byte(3)}, BigEndian)
	if _, err := Unmarshal(tc, inner, BigEndian); err == nil {
		t.Fatal("over-bound sequence should fail to unmarshal")
	}
}

func TestImplausibleSequenceLengthRejected(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteULong(1 << 30) // claims a gigantic sequence with no body
	if _, err := Unmarshal(SequenceOf(Double), e.Bytes(), BigEndian); err == nil {
		t.Fatal("implausible sequence length should be rejected")
	}
}

func TestTypeCodeEqual(t *testing.T) {
	cases := []struct {
		a, b *TypeCode
		want bool
	}{
		{Long, Long, true},
		{Long, ULong, false},
		{SequenceOf(Long), SequenceOf(Long), true},
		{SequenceOf(Long), SequenceOf(Short), false},
		{pointTC, StructOf("Point",
			Member{Name: "x", Type: Double},
			Member{Name: "y", Type: Double},
			Member{Name: "label", Type: String}), true},
		{pointTC, StructOf("Point", Member{Name: "x", Type: Double}), false},
		{EnumOf("C", "a"), EnumOf("C", "a"), true},
		{EnumOf("C", "a"), EnumOf("C", "b"), false},
		{ArrayOf(Octet, 2), ArrayOf(Octet, 3), false},
		{nil, Long, false},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal(%s, %s) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestEqualValuesInexactFloats(t *testing.T) {
	eps := func(a, b float64) bool { return math.Abs(a-b) <= 0.01 }
	tc := StructOf("S", Member{Name: "v", Type: Double})
	eq, err := EqualValues(tc, []Value{1.000}, []Value{1.005}, eps)
	if err != nil || !eq {
		t.Fatalf("inexact compare: eq=%v err=%v", eq, err)
	}
	eq, err = EqualValues(tc, []Value{1.000}, []Value{1.005}, nil)
	if err != nil || eq {
		t.Fatalf("exact compare should differ: eq=%v err=%v", eq, err)
	}
}

// quickValue builds a pseudo-random Value for a TypeCode from a seed, for
// property-based round-trip testing.
func quickValue(tc *TypeCode, seed int64) Value {
	next := func() int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed
	}
	var build func(tc *TypeCode) Value
	build = func(tc *TypeCode) Value {
		switch tc.Kind {
		case KindBoolean:
			return next()&1 == 0
		case KindOctet:
			return byte(next())
		case KindShort:
			return int16(next())
		case KindUShort:
			return uint16(next())
		case KindLong:
			return int32(next())
		case KindULong:
			return uint32(next())
		case KindLongLong:
			return next()
		case KindULongLong:
			return uint64(next())
		case KindFloat:
			return float32(next()%1000) / 8
		case KindDouble:
			return float64(next()%100000) / 64
		case KindString:
			n := int(uint64(next()) % 16)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + uint64(next())%26)
			}
			return string(b)
		case KindSequence:
			n := int(uint64(next()) % 5)
			out := make([]Value, n)
			for i := range out {
				out[i] = build(tc.Elem)
			}
			return out
		case KindStruct:
			out := make([]Value, len(tc.Members))
			for i, m := range tc.Members {
				out[i] = build(m.Type)
			}
			return out
		default:
			return nil
		}
	}
	return build(tc)
}

func TestQuickRoundTripProperty(t *testing.T) {
	nested := StructOf("Outer",
		Member{Name: "id", Type: ULongLong},
		Member{Name: "pts", Type: SequenceOf(pointTC)},
		Member{Name: "tags", Type: SequenceOf(String)},
		Member{Name: "flag", Type: Boolean},
	)
	prop := func(seed int64, little bool) bool {
		order := BigEndian
		if little {
			order = LittleEndian
		}
		v := quickValue(nested, seed)
		buf, err := Marshal(nested, v, order)
		if err != nil {
			return false
		}
		got, err := Unmarshal(nested, buf, order)
		if err != nil {
			return false
		}
		eq, err := EqualValues(nested, v, got, nil)
		return err == nil && eq
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCrossEndianEquivalenceProperty(t *testing.T) {
	// Property: marshalling the same value on two platforms with opposite
	// byte orders yields streams that unmarshal to equal values — the
	// foundation of heterogeneous voting.
	prop := func(seed int64) bool {
		v := quickValue(pointTC, seed)
		be, err := Marshal(pointTC, v, BigEndian)
		if err != nil {
			return false
		}
		le, err := Marshal(pointTC, v, LittleEndian)
		if err != nil {
			return false
		}
		a, err := Unmarshal(pointTC, be, BigEndian)
		if err != nil {
			return false
		}
		b, err := Unmarshal(pointTC, le, LittleEndian)
		if err != nil {
			return false
		}
		eq, err := EqualValues(pointTC, a, b, nil)
		return err == nil && eq
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneValue: a clone equals its original and shares no slice with it,
// so changing one at any depth leaves the other as it was.
func TestCloneValue(t *testing.T) {
	tc := StructOf("S",
		Member{Name: "n", Type: Long},
		Member{Name: "s", Type: String},
		Member{Name: "seq", Type: SequenceOf(SequenceOf(Octet))},
		Member{Name: "empty", Type: SequenceOf(Long)})
	orig := []Value{int32(7), "x", []Value{[]Value{byte(1), byte(2)}, []Value{}}, []Value(nil)}
	clone := CloneValue(orig)
	if eq, err := EqualValues(tc, orig, clone, ExactFloatEq); err != nil || !eq {
		t.Fatalf("clone differs from its original: %v, %v", eq, err)
	}
	c := clone.([]Value)
	if c[3].([]Value) != nil {
		t.Fatal("a nil sequence cloned as an empty one")
	}
	c[0] = int32(8)
	c[2].([]Value)[0].([]Value)[1] = byte(9)
	if orig[0] != int32(7) || orig[2].([]Value)[0].([]Value)[1] != byte(2) {
		t.Fatalf("changing the clone changed the original: %v", orig)
	}
	if v := CloneValue("s"); v != "s" {
		t.Fatalf("a leaf cloned as %v", v)
	}
}
