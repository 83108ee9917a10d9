// Package detmap holds fixtures for the det-map check: map iteration
// feeding order-sensitive streams.
package detmap

import (
	"crypto/sha256"
	"hash"
)

// Digesting map entries in range order: every replica hashes a different
// permutation.
func digestUnsorted(m map[string]byte) []byte {
	h := sha256.New()
	for k, v := range m {
		h.Write([]byte(k)) // want:det-map
		h.Write([]byte{v}) // want:det-map
	}
	return h.Sum(nil)
}

// emit forwards its hash parameter into a stream sink, so calls to it are
// stream writes (interprocedural fixpoint).
func emit(h hash.Hash, v byte) {
	h.Write([]byte{v})
}

func digestViaHelper(m map[int]byte, h hash.Hash) {
	for _, v := range m {
		emit(h, v) // want:det-map
	}
}

// Suppressed: the accumulator is commutative, so order cannot matter.
func xorFold(m map[int]byte, h hash.Hash) {
	acc := byte(0)
	for _, v := range m {
		acc ^= v
	}
	h.Write([]byte{acc})
}

func suppressedCommutative(m map[int]byte, h hash.Hash) {
	for _, v := range m {
		h.Write([]byte{v}) //itdos:nolint:det-map // single-byte writes into an order-free test accumulator hash
	}
}

// encodeShare is the keep-test row: dprf's Share.Encode ranging its map of
// subset values instead of the sorted subset ids, which no test can tell
// apart.
func encodeShare(vals map[uint32][32]byte, h hash.Hash) {
	for _, v := range vals {
		h.Write(v[:]) // want:det-map
	}
}
