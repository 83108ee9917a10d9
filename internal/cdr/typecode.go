// Package cdr implements a Common Data Representation (CDR) marshalling
// engine in the style of the OMG GIOP specification.
//
// CDR is the wire format CORBA uses for operation parameters and results.
// Two properties matter for ITDOS:
//
//   - CDR is bi-endian: the sender marshals in its native byte order and
//     flags that order in the stream. Heterogeneous replicas therefore
//     produce legitimately different bytes for identical values, which is
//     why ITDOS votes on unmarshalled values rather than raw bytes
//     (paper §3.6).
//   - Primitive values are aligned to their natural size relative to the
//     start of the encapsulation, so padding bytes differ between message
//     layouts as well.
//
// The package provides TypeCodes (runtime type descriptors), an Encoder and
// a Decoder parameterised by byte order, and value-tree encoding used by the
// voter and by the Group Manager's standalone marshalling engine.
package cdr

import (
	"fmt"
	"strings"
)

// Kind enumerates the CDR type constructors supported by the engine.
type Kind int

// Supported TypeCode kinds. The set covers the CORBA primitive types plus
// the constructed types (struct, sequence, array, enum, union-free subset)
// that ITDOS voting needs.
const (
	KindVoid Kind = iota + 1
	KindBoolean
	KindOctet
	KindShort
	KindUShort
	KindLong
	KindULong
	KindLongLong
	KindULongLong
	KindFloat
	KindDouble
	KindString
	KindSequence
	KindArray
	KindStruct
	KindEnum
)

var kindNames = map[Kind]string{
	KindVoid:      "void",
	KindBoolean:   "boolean",
	KindOctet:     "octet",
	KindShort:     "short",
	KindUShort:    "ushort",
	KindLong:      "long",
	KindULong:     "ulong",
	KindLongLong:  "longlong",
	KindULongLong: "ulonglong",
	KindFloat:     "float",
	KindDouble:    "double",
	KindString:    "string",
	KindSequence:  "sequence",
	KindArray:     "array",
	KindStruct:    "struct",
	KindEnum:      "enum",
}

// String returns the IDL-ish name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Member describes one field of a struct TypeCode.
type Member struct {
	Name string
	Type *TypeCode
}

// TypeCode is a runtime type descriptor. TypeCodes drive both marshalling
// and value voting: the voter walks a TypeCode to compare two unmarshalled
// values member by member, applying inexact comparison only at Float/Double
// leaves.
type TypeCode struct {
	Kind Kind

	// Name is the repository-ish name for structs and enums.
	Name string

	// Members is populated for KindStruct.
	Members []Member

	// Elem is the element type for KindSequence and KindArray.
	Elem *TypeCode

	// Length is the fixed length for KindArray and the maximum length for
	// bounded sequences (0 means unbounded).
	Length int

	// Labels is populated for KindEnum with the enumerator names.
	Labels []string
}

// Primitive TypeCode singletons. They are immutable; callers must not
// modify them.
var (
	Void      = &TypeCode{Kind: KindVoid}
	Boolean   = &TypeCode{Kind: KindBoolean}
	Octet     = &TypeCode{Kind: KindOctet}
	Short     = &TypeCode{Kind: KindShort}
	UShort    = &TypeCode{Kind: KindUShort}
	Long      = &TypeCode{Kind: KindLong}
	ULong     = &TypeCode{Kind: KindULong}
	LongLong  = &TypeCode{Kind: KindLongLong}
	ULongLong = &TypeCode{Kind: KindULongLong}
	Float     = &TypeCode{Kind: KindFloat}
	Double    = &TypeCode{Kind: KindDouble}
	String    = &TypeCode{Kind: KindString}
)

// SequenceOf returns an unbounded sequence TypeCode with the given element
// type.
func SequenceOf(elem *TypeCode) *TypeCode {
	return &TypeCode{Kind: KindSequence, Elem: elem}
}

// ArrayOf returns a fixed-length array TypeCode.
func ArrayOf(elem *TypeCode, length int) *TypeCode {
	return &TypeCode{Kind: KindArray, Elem: elem, Length: length}
}

// StructOf returns a struct TypeCode with the given name and members.
func StructOf(name string, members ...Member) *TypeCode {
	return &TypeCode{Kind: KindStruct, Name: name, Members: members}
}

// EnumOf returns an enum TypeCode with the given name and enumerator labels.
func EnumOf(name string, labels ...string) *TypeCode {
	return &TypeCode{Kind: KindEnum, Name: name, Labels: labels}
}

// String renders the TypeCode as IDL-ish text, e.g.
// "struct Point{x: double, y: double}".
func (tc *TypeCode) String() string {
	if tc == nil {
		return "<nil>"
	}
	switch tc.Kind {
	case KindSequence:
		return fmt.Sprintf("sequence<%s>", tc.Elem)
	case KindArray:
		return fmt.Sprintf("array<%s,%d>", tc.Elem, tc.Length)
	case KindStruct:
		parts := make([]string, len(tc.Members))
		for i, m := range tc.Members {
			parts[i] = fmt.Sprintf("%s: %s", m.Name, m.Type)
		}
		return fmt.Sprintf("struct %s{%s}", tc.Name, strings.Join(parts, ", "))
	case KindEnum:
		return fmt.Sprintf("enum %s{%s}", tc.Name, strings.Join(tc.Labels, ", "))
	default:
		return tc.Kind.String()
	}
}

// Equal reports whether two TypeCodes describe the same type structurally.
func (tc *TypeCode) Equal(other *TypeCode) bool {
	if tc == other {
		return true
	}
	if tc == nil || other == nil {
		return false
	}
	if tc.Kind != other.Kind || tc.Name != other.Name || tc.Length != other.Length {
		return false
	}
	switch tc.Kind {
	case KindSequence, KindArray:
		return tc.Elem.Equal(other.Elem)
	case KindStruct:
		if len(tc.Members) != len(other.Members) {
			return false
		}
		for i := range tc.Members {
			if tc.Members[i].Name != other.Members[i].Name {
				return false
			}
			if !tc.Members[i].Type.Equal(other.Members[i].Type) {
				return false
			}
		}
		return true
	case KindEnum:
		if len(tc.Labels) != len(other.Labels) {
			return false
		}
		for i := range tc.Labels {
			if tc.Labels[i] != other.Labels[i] {
				return false
			}
		}
		return true
	default:
		return true
	}
}
