// Package vote holds fixtures for the value-vote check.
package vote

import (
	"bytes"
	"reflect"
)

type submission struct {
	raw []byte
	val any
}

func byteVote(a, b submission) bool {
	if bytes.Equal(a.raw, b.raw) { // want:value-vote
		return true
	}
	if bytes.Compare(a.raw, b.raw) == 0 { // want:value-vote
		return true
	}
	return reflect.DeepEqual(a.val, b.val) // want:value-vote
}

// exactEqual is the keep-test row: vote.Exact.Equal with cdr.EqualValues
// swapped for reflect.DeepEqual, which no test can tell apart.
func exactEqual(a, b any) (bool, error) {
	return reflect.DeepEqual(a, b), nil // want:value-vote
}

// Suppressed: a digest comparison, not a vote on values.
func sameDigest(a, b []byte) bool {
	return bytes.Equal(a, b) //itdos:nolint:value-vote // digests are canonical by construction; equal values hash equal
}
