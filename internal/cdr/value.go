package cdr

import (
	"fmt"
)

// Value is the unmarshalled representation of a CDR datum, as produced by
// DecodeValue and consumed by the voter. The dynamic type depends on the
// TypeCode kind:
//
//	KindVoid       -> nil
//	KindBoolean    -> bool
//	KindOctet      -> byte
//	KindShort      -> int16
//	KindUShort     -> uint16
//	KindLong       -> int32
//	KindULong      -> uint32
//	KindLongLong   -> int64
//	KindULongLong  -> uint64
//	KindFloat      -> float32
//	KindDouble     -> float64
//	KindString     -> string
//	KindEnum       -> uint32 (enumerator ordinal)
//	KindSequence   -> []Value
//	KindArray      -> []Value
//	KindStruct     -> []Value (one per member, in order)
type Value any

// EncodeValue marshals v according to tc into the encoder.
func EncodeValue(e *Encoder, tc *TypeCode, v Value) error {
	if tc == nil {
		return fmt.Errorf("cdr: encode: nil TypeCode")
	}
	switch tc.Kind {
	case KindVoid:
		if v != nil {
			return fmt.Errorf("cdr: encode void: non-nil value %T", v)
		}
		return nil
	case KindBoolean:
		b, ok := v.(bool)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteBoolean(b)
		return nil
	case KindOctet:
		b, ok := v.(byte)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteOctet(b)
		return nil
	case KindShort:
		x, ok := v.(int16)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteShort(x)
		return nil
	case KindUShort:
		x, ok := v.(uint16)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteUShort(x)
		return nil
	case KindLong:
		x, ok := v.(int32)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteLong(x)
		return nil
	case KindULong:
		x, ok := v.(uint32)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteULong(x)
		return nil
	case KindLongLong:
		x, ok := v.(int64)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteLongLong(x)
		return nil
	case KindULongLong:
		x, ok := v.(uint64)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteULongLong(x)
		return nil
	case KindFloat:
		x, ok := v.(float32)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteFloat(x)
		return nil
	case KindDouble:
		x, ok := v.(float64)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteDouble(x)
		return nil
	case KindString:
		s, ok := v.(string)
		if !ok {
			return typeErr(tc, v)
		}
		e.WriteString(s)
		return nil
	case KindEnum:
		ord, ok := v.(uint32)
		if !ok {
			return typeErr(tc, v)
		}
		if int(ord) >= len(tc.Labels) {
			return fmt.Errorf("cdr: encode %s: ordinal %d out of range (%d labels)",
				tc, ord, len(tc.Labels))
		}
		e.WriteULong(ord)
		return nil
	case KindSequence:
		elems, ok := v.([]Value)
		if !ok {
			return typeErr(tc, v)
		}
		if tc.Length > 0 && len(elems) > tc.Length {
			return fmt.Errorf("cdr: encode %s: length %d exceeds bound %d",
				tc, len(elems), tc.Length)
		}
		e.WriteULong(uint32(len(elems)))
		for i, el := range elems {
			if err := EncodeValue(e, tc.Elem, el); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	case KindArray:
		elems, ok := v.([]Value)
		if !ok {
			return typeErr(tc, v)
		}
		if len(elems) != tc.Length {
			return fmt.Errorf("cdr: encode %s: got %d elements, want %d",
				tc, len(elems), tc.Length)
		}
		for i, el := range elems {
			if err := EncodeValue(e, tc.Elem, el); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	case KindStruct:
		fields, ok := v.([]Value)
		if !ok {
			return typeErr(tc, v)
		}
		if len(fields) != len(tc.Members) {
			return fmt.Errorf("cdr: encode %s: got %d fields, want %d",
				tc, len(fields), len(tc.Members))
		}
		for i, m := range tc.Members {
			if err := EncodeValue(e, m.Type, fields[i]); err != nil {
				return fmt.Errorf("member %s: %w", m.Name, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("cdr: encode: unsupported kind %s", tc.Kind)
	}
}

func typeErr(tc *TypeCode, v Value) error {
	return fmt.Errorf("cdr: encode %s: incompatible Go value %T", tc, v)
}

// maxDecodeElems bounds sequence allocations so a corrupt length prefix from
// a Byzantine sender cannot exhaust memory.
const maxDecodeElems = 1 << 24

// DecodeValue unmarshals one value of type tc from the decoder.
func DecodeValue(d *Decoder, tc *TypeCode) (Value, error) {
	if tc == nil {
		return nil, fmt.Errorf("cdr: decode: nil TypeCode")
	}
	switch tc.Kind {
	case KindVoid:
		return nil, nil
	case KindBoolean:
		return d.ReadBoolean()
	case KindOctet:
		return d.ReadOctet()
	case KindShort:
		return d.ReadShort()
	case KindUShort:
		return d.ReadUShort()
	case KindLong:
		return d.ReadLong()
	case KindULong:
		return d.ReadULong()
	case KindLongLong:
		return d.ReadLongLong()
	case KindULongLong:
		return d.ReadULongLong()
	case KindFloat:
		return d.ReadFloat()
	case KindDouble:
		return d.ReadDouble()
	case KindString:
		return d.ReadString()
	case KindEnum:
		ord, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		if int(ord) >= len(tc.Labels) {
			return nil, fmt.Errorf("cdr: decode %s: ordinal %d out of range", tc, ord)
		}
		return ord, nil
	case KindSequence:
		n, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		if n > maxDecodeElems {
			return nil, fmt.Errorf("cdr: decode %s: implausible length %d", tc, n)
		}
		if tc.Length > 0 && int(n) > tc.Length {
			return nil, fmt.Errorf("cdr: decode %s: length %d exceeds bound %d", tc, n, tc.Length)
		}
		elems := make([]Value, 0, min(int(n), 4096))
		for i := 0; i < int(n); i++ {
			el, err := DecodeValue(d, tc.Elem)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			elems = append(elems, el)
		}
		return elems, nil
	case KindArray:
		elems := make([]Value, 0, tc.Length)
		for i := 0; i < tc.Length; i++ {
			el, err := DecodeValue(d, tc.Elem)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			elems = append(elems, el)
		}
		return elems, nil
	case KindStruct:
		fields := make([]Value, 0, len(tc.Members))
		for _, m := range tc.Members {
			f, err := DecodeValue(d, m.Type)
			if err != nil {
				return nil, fmt.Errorf("member %s: %w", m.Name, err)
			}
			fields = append(fields, f)
		}
		return fields, nil
	default:
		return nil, fmt.Errorf("cdr: decode: unsupported kind %s", tc.Kind)
	}
}

// FloatEq compares two floating-point leaves. Implementations decide
// exactness: the exact voter uses ==, the inexact voter uses an epsilon
// (paper §3.6, and Parhami's inexact voting [31]).
type FloatEq func(a, b float64) bool

// ExactFloatEq is the FloatEq used by exact voting.
func ExactFloatEq(a, b float64) bool { return a == b }

// EqualValues structurally compares two unmarshalled values of type tc,
// applying feq at Float/Double leaves and exact comparison everywhere else.
// This is the equivalency test the ITDOS voter runs on unmarshalled CORBA
// messages: two byte-wise different streams from heterogeneous replicas
// compare equal here when they carry the same values.
func EqualValues(tc *TypeCode, a, b Value, feq FloatEq) (bool, error) {
	if tc == nil {
		return false, fmt.Errorf("cdr: compare: nil TypeCode")
	}
	if feq == nil {
		feq = ExactFloatEq
	}
	switch tc.Kind {
	case KindVoid:
		return a == nil && b == nil, nil
	case KindFloat:
		x, okx := a.(float32)
		y, oky := b.(float32)
		if !okx || !oky {
			return false, compareTypeErr(tc, a, b)
		}
		return feq(float64(x), float64(y)), nil
	case KindDouble:
		x, okx := a.(float64)
		y, oky := b.(float64)
		if !okx || !oky {
			return false, compareTypeErr(tc, a, b)
		}
		return feq(x, y), nil
	case KindBoolean, KindOctet, KindShort, KindUShort, KindLong, KindULong,
		KindLongLong, KindULongLong, KindString, KindEnum:
		return a == b, nil
	case KindSequence, KindArray:
		xs, okx := a.([]Value)
		ys, oky := b.([]Value)
		if !okx || !oky {
			return false, compareTypeErr(tc, a, b)
		}
		if len(xs) != len(ys) {
			return false, nil
		}
		for i := range xs {
			eq, err := EqualValues(tc.Elem, xs[i], ys[i], feq)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	case KindStruct:
		xs, okx := a.([]Value)
		ys, oky := b.([]Value)
		if !okx || !oky {
			return false, compareTypeErr(tc, a, b)
		}
		if len(xs) != len(tc.Members) || len(ys) != len(tc.Members) {
			return false, fmt.Errorf("cdr: compare %s: wrong field count", tc)
		}
		for i, m := range tc.Members {
			eq, err := EqualValues(m.Type, xs[i], ys[i], feq)
			if err != nil {
				return false, fmt.Errorf("member %s: %w", m.Name, err)
			}
			if !eq {
				return false, nil
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("cdr: compare: unsupported kind %s", tc.Kind)
	}
}

func compareTypeErr(tc *TypeCode, a, b Value) error {
	return fmt.Errorf("cdr: compare %s: incompatible Go values %T, %T", tc, a, b)
}

// CloneValue returns a copy of v that shares nothing its holder can change:
// every []Value in it is copied, and the leaves — numbers, strings — are
// immutable and shared. It costs one slice per sequence, array or struct.
func CloneValue(v Value) Value {
	elems, ok := v.([]Value)
	if !ok || elems == nil {
		return v
	}
	out := make([]Value, len(elems))
	for i, el := range elems {
		out[i] = CloneValue(el)
	}
	return out
}

// Marshal is a convenience wrapper encoding one value with the given order.
func Marshal(tc *TypeCode, v Value, order ByteOrder) ([]byte, error) {
	e := NewEncoder(order)
	if err := EncodeValue(e, tc, v); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// Unmarshal is a convenience wrapper decoding one value with the given order.
func Unmarshal(tc *TypeCode, buf []byte, order ByteOrder) (Value, error) {
	d := NewDecoder(buf, order)
	v, err := DecodeValue(d, tc)
	if err != nil {
		return nil, err
	}
	return v, nil
}
