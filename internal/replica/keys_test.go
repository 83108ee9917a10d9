package replica

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/netsim"
	"itdos/internal/pbft"
	"itdos/internal/srm"
	"itdos/internal/transport"
)

// signedPBFT returns what a pre-prepare, prepare or checkpoint's signature
// covers (a pre-prepare's header, otherwise the encoding with the signature
// empty), the signature, and the index of the replica that sent it.
func signedPBFT(m pbft.Message) (signing, sig []byte, from pbft.ReplicaID, ok bool) {
	switch msg := m.(type) {
	case *pbft.PrePrepare:
		// A pre-prepare's signature covers its header, laid out like a
		// prepare's under its own type octet.
		h := pbft.Encode(&pbft.Prepare{View: msg.View, Seq: msg.Seq, Digest: msg.Digest, Replica: msg.Replica})
		h[0] = byte(pbft.MTPrePrepare)
		return h, msg.Sig, msg.Replica, true
	case *pbft.Prepare:
		c := *msg
		c.Sig = nil
		return pbft.Encode(&c), msg.Sig, msg.Replica, true
	case *pbft.Checkpoint:
		c := *msg
		c.Sig = nil
		return pbft.Encode(&c), msg.Sig, msg.Replica, true
	}
	return nil, nil, 0, false
}

// TestOneKeyPerElement: every element of every domain and of the Group
// Manager is one identity. Its ordering replica is named like the element
// and listens at that name, the PBFT messages the replica signs verify under
// the element's own public key, and every ordering group checks signatures
// against the system's one keyring.
func TestOneKeyPerElement(t *testing.T) {
	ts := newCalcSystem(t, 12, nil)
	// The first signed pre-prepare or prepare each replica address sends.
	signed := make(map[netsim.NodeID]pbft.Message)
	ts.sys.Net.AddFilter(func(from, _ netsim.NodeID, payload []byte) ([]byte, bool) {
		if m, err := pbft.Decode(payload); err == nil && signed[from] == nil {
			if _, _, _, ok := signedPBFT(m); ok {
				signed[from] = m
			}
		}
		return nil, false
	})
	if _, err := ts.sys.Client("alice").CallAndRun(calcRef, "add", []cdr.Value{1.0, 2.0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	ts.sys.Net.Run(1_000_000)

	groups := map[string]*srm.Domain{GMDomainName: ts.sys.GMDomain(), "calc": ts.sys.Domain("calc").Dom}
	for name, dom := range groups {
		if dom.Group.Ring != ts.sys.ring {
			t.Errorf("%s: orders against its own keyring", name)
		}
		for i, rep := range dom.Group.Replicas {
			id := ElementIdentity(name, i)
			if rep.Identity() != id || string(dom.Addrs()[i]) != id {
				t.Errorf("%s replica %d: identity %q at %q, want element %q", name, i, rep.Identity(), dom.Addrs()[i], id)
				continue
			}
			m := signed[transport.NodeID(id)]
			if m == nil {
				t.Errorf("%s: sent no signed pre-prepare or prepare", id)
				continue
			}
			signing, sig, from, _ := signedPBFT(m)
			pub := ts.sys.privs[id].Public().(ed25519.PublicKey)
			if from != pbft.ReplicaID(i) || !pbft.VerifyDigest(pub, sha256.Sum256(signing), sig) {
				t.Errorf("%s: its %s does not verify under the element's key", id, m.Type())
			}
		}
	}
}

// liveTransport hides the simulator behind the bare interface, as any real
// network backend appears to NewSystem.
type liveTransport struct{ transport.Transport }

// TestLiveTransportNeedsDeterministicKeys: a system on a real network is one
// process of several, each building its own keys. Unless they are derived
// from the shared configuration, every process rejects every other one's
// signatures, so the combination is refused at build time.
func TestLiveTransportNeedsDeterministicKeys(t *testing.T) {
	for _, deterministic := range []bool{false, true} {
		sys, err := NewSystem(SystemConfig{
			Transport:         liveTransport{netsim.NewNetwork(1, netsim.ConstantLatency(time.Millisecond))},
			DeterministicKeys: deterministic,
			Registry:          calcRegistry(),
			Domains:           []DomainSpec{{Name: "calc", N: 4, F: 1}},
			Clients:           []ClientSpec{{Name: "alice"}},
		})
		switch {
		case deterministic && err != nil:
			t.Fatalf("derived keys on a live transport refused: %v", err)
		case !deterministic && err == nil:
			sys.Close()
			t.Fatal("random keys on a live transport accepted")
		case !deterministic && !strings.Contains(err.Error(), "DeterministicKeys"):
			t.Fatalf("refused for another reason: %v", err)
		}
		if sys != nil {
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShareResealIsIdentical: a Group Manager element that seals a share
// again — a duplicate open request, a late joiner — produces the same bytes,
// so its one-shot pairwise channel never puts two plaintexts under one
// sequence number and nonce. The seal opens at its recipient only, and
// another recipient or era seals under another channel.
func TestShareResealIsIdentical(t *testing.T) {
	sys := newCalcSystem(t, 12, nil).sys
	share := []byte("dprf share of connection 7")
	first, err := sys.sealShare("gm/r0", "calc/r1", 7, 0, share)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sys.sealShare("gm/r0", "calc/r1", 7, 0, share)
	if err != nil || !bytes.Equal(first, again) {
		t.Fatalf("resealed share differs (err %v)", err)
	}
	if got, err := sys.openShare("gm/r0", "calc/r1", 7, 0, again); err != nil || !bytes.Equal(got, share) {
		t.Fatalf("recipient cannot open the reseal: %v", err)
	}
	for name, open := range map[string]func() ([]byte, error){
		"another recipient": func() ([]byte, error) { return sys.openShare("gm/r0", "calc/r2", 7, 0, first) },
		"another era":       func() ([]byte, error) { return sys.openShare("gm/r0", "calc/r1", 7, 1, first) },
		"another GM member": func() ([]byte, error) { return sys.openShare("gm/r1", "calc/r1", 7, 0, first) },
	} {
		if _, err := open(); err == nil {
			t.Errorf("%s opens the share", name)
		}
	}
	other, err := sys.sealShare("gm/r0", "calc/r1", 7, 1, share)
	if err != nil || bytes.Equal(other, first) {
		t.Fatalf("another era seals the same bytes (err %v)", err)
	}
}
