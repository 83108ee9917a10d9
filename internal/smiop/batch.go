package smiop

import (
	"crypto/sha256"
	"fmt"
)

// Merkle-batched reply signatures.
//
// An element that produces several full replies in one pass signs one
// Merkle root over them instead of each reply. Leaf i is reply i's
// DataSigningDigest, the same 32-byte digest a plain signature covers
// (pbft.SignDigest), so every reply stays a self-contained statement by its
// element: the reply, its path and the root signature convince a caller and
// the Group Manager alike.
//
// The tree is RFC 6962's: a leaf enters as SHA-256(0x00 ‖ leaf), an inner
// node is SHA-256(0x01 ‖ left ‖ right), and a tree of n > 1 leaves splits at
// the largest power of two below n. The root signature covers RootDigest,
// SHA-256 of rootContext ‖ root, whose first octet ('i') begins no PBFT
// preimage (a type octet, 1–11) and no data or digest preimage (a CDR string
// length, 0).
//
// A batched reply carries its path in the signed payload's Sig octets:
//
//	sig(64) ‖ index(1) ‖ count(1) ‖ siblings(32 each, leaf level first)
//
// A Sig of exactly SignatureSize octets is a plain signature over the
// leaf itself: a reply signed alone keeps its bytes, and a batch of one does
// not exist (count is at least 2).

// SignatureSize is the length of a plain signature, and of the root
// signature a batched one starts with (Ed25519).
const SignatureSize = 64

// MaxReplyLeaves bounds the leaves under one root signature, so a path has
// at most four siblings.
const MaxReplyLeaves = 16

// maxSigSize is the longest Sig a data payload carries: a batched signature
// with a full path.
const maxSigSize = SignatureSize + 2 + 4*32

// rootContext prefixes the 32-byte root in what a root signature covers.
const rootContext = "itdos-reply-root"

// RootDigest is what a root signature covers: SHA-256 of rootContext ‖
// root, hashed as it streams.
func RootDigest(root [32]byte) [32]byte {
	return contextDigest([]byte(rootContext), root[:])
}

func leafHash(leaf [32]byte) [32]byte {
	var b [1 + 32]byte
	copy(b[1:], leaf[:])
	return sha256.Sum256(b[:])
}

func nodeHash(left, right [32]byte) [32]byte {
	var b [1 + 64]byte
	b[0] = 1
	copy(b[1:], left[:])
	copy(b[33:], right[:])
	return sha256.Sum256(b[:])
}

// split is the size of the left subtree of a tree of n > 1 leaves.
func split(n int) int {
	k := 1
	for 2*k < n {
		k *= 2
	}
	return k
}

// pathLen is the number of siblings on leaf index's path in a tree of count
// leaves.
func pathLen(index, count int) int {
	n := 0
	for count > 1 {
		k := split(count)
		if index < k {
			count = k
		} else {
			index, count = index-k, count-k
		}
		n++
	}
	return n
}

// BatchedSig is a batched Sig split into its parts.
type BatchedSig struct {
	Sig          []byte // the root signature
	Index, Count int
	Siblings     [][32]byte // leaf level first
}

// ParseBatchedSig splits a batched Sig. It refuses a plain signature, a
// count outside 2..MaxReplyLeaves, an index outside the tree, and a path
// whose sibling count is not the one the (index, count) shape needs.
func ParseBatchedSig(sig []byte) (*BatchedSig, error) {
	if len(sig) < SignatureSize+2 {
		return nil, fmt.Errorf("smiop: batched signature of %d octets", len(sig))
	}
	index, count := int(sig[SignatureSize]), int(sig[SignatureSize+1])
	if count < 2 || count > MaxReplyLeaves || index >= count {
		return nil, fmt.Errorf("smiop: batched signature leaf %d of %d", index, count)
	}
	path := sig[SignatureSize+2:]
	if want := pathLen(index, count); len(path) != 32*want {
		return nil, fmt.Errorf("smiop: batched signature path of %d octets, leaf %d of %d needs %d siblings",
			len(path), index, count, want)
	}
	b := &BatchedSig{Sig: sig[:SignatureSize], Index: index, Count: count}
	for len(path) > 0 {
		b.Siblings = append(b.Siblings, [32]byte(path[:32]))
		path = path[32:]
	}
	return b, nil
}

// Root recomputes the root of the tree the path claims leaf is in.
func (b *BatchedSig) Root(leaf [32]byte) [32]byte {
	return rootOf(leafHash(leaf), b.Index, b.Count, b.Siblings)
}

// rootOf folds a parsed path (whose length pathLen already checked) from
// the top of the tree down.
func rootOf(h [32]byte, index, count int, path [][32]byte) [32]byte {
	if count == 1 {
		return h
	}
	k, top, rest := split(count), path[len(path)-1], path[:len(path)-1]
	if index < k {
		return nodeHash(rootOf(h, index, k, rest), top)
	}
	return nodeHash(top, rootOf(h, index-k, count-k, rest))
}

// SignReplyBatch signs 2..MaxReplyLeaves leaves with one root signature,
// sign(RootDigest(root)), and returns each leaf's batched Sig octets.
func SignReplyBatch(leaves [][32]byte, sign func(digest []byte) []byte) ([][]byte, error) {
	if len(leaves) < 2 || len(leaves) > MaxReplyLeaves {
		return nil, fmt.Errorf("smiop: batch of %d replies", len(leaves))
	}
	hashes := make([][32]byte, len(leaves))
	for i, l := range leaves {
		hashes[i] = leafHash(l)
	}
	paths := make([][][32]byte, len(leaves))
	root := buildTree(hashes, paths)
	d := RootDigest(root)
	sig := sign(d[:])
	if len(sig) != SignatureSize {
		return nil, fmt.Errorf("smiop: root signature of %d octets", len(sig))
	}
	out := make([][]byte, len(leaves))
	for i, path := range paths {
		b := make([]byte, 0, SignatureSize+2+32*len(path))
		b = append(append(b, sig...), byte(i), byte(len(leaves)))
		for _, s := range path {
			b = append(b, s[:]...)
		}
		out[i] = b
	}
	return out, nil
}

// buildTree returns the root over hashes and appends each leaf's siblings
// to its path, leaf level first.
func buildTree(hashes [][32]byte, paths [][][32]byte) [32]byte {
	n := len(hashes)
	if n == 1 {
		return hashes[0]
	}
	k := split(n)
	l, r := buildTree(hashes[:k], paths[:k]), buildTree(hashes[k:], paths[k:])
	for i := range paths {
		if i < k {
			paths[i] = append(paths[i], r)
		} else {
			paths[i] = append(paths[i], l)
		}
	}
	return nodeHash(l, r)
}
