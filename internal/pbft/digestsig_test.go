package pbft

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"strings"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/smiop"
)

// sigPayloadSize is the payload the tamper table signs: an echo_16k call.
const sigPayloadSize = 16 << 10

// sigPayload returns a fresh sigPayloadSize-byte payload.
func sigPayload() []byte {
	p := make([]byte, sigPayloadSize)
	for i := range p {
		p[i] = byte('a' + i%26)
	}
	return p
}

// sigKeys returns a group of four and client:x under one seed: their
// authenticators and private keys by identity.
func sigKeys(t *testing.T) ([]string, map[string]*Ed25519Auth, map[string]ed25519.PrivateKey) {
	t.Helper()
	ring := NewKeyring()
	ids := Identities("grp", 4)
	auths := make(map[string]*Ed25519Auth)
	privs := make(map[string]ed25519.PrivateKey)
	for _, id := range append(ids[:4:4], "client:x") {
		priv, err := DeriveIdentity(id, []byte("digest-signatures"), ring)
		if err != nil {
			t.Fatal(err)
		}
		auths[id], privs[id] = NewEd25519Auth(id, priv, ring), priv
	}
	return ids, auths, privs
}

// sigCase is one row of the tamper table: a signed object, the checks its
// receiver makes, and the ways to tamper with it. Every edit works on a fresh
// copy of the signed original.
type sigCase struct {
	name string
	// fresh returns a copy of the signed original, decoded anew for a PBFT
	// message so no cached digest survives an edit.
	fresh func() any
	// verify is the receiver's check.
	verify func(v any) bool
	// payload returns the 16 KiB payload inside v, to flip bytes of.
	payload func(v any) []byte
	// context edits each signed field other than the payload.
	context map[string]func(v any)
	// sig returns v's signature, to flip octets of.
	sig func(v any) []byte
	// preimage is what signer's signature covers, and rawSign replaces v's
	// signature with a raw Ed25519 signature over it (the old scheme).
	signer   ed25519.PrivateKey
	preimage func(v any) []byte
	rawSign  func(v any, sig []byte)
}

// smiopData is a signed SMIOP data payload and its transport context.
type smiopData struct {
	conn, req uint64
	domain    string
	member    uint32
	reply     bool
	giop, sig []byte
}

func (d *smiopData) preimage() []byte {
	return smiop.DataSigningBytes(d.conn, d.req, d.domain, d.member, d.reply, d.giop)
}

// digest is what d's signature covers: its preimage's digest, hashed as it
// streams.
func (d *smiopData) digest() Digest {
	return smiop.DataSigningDigest(d.conn, d.req, d.domain, d.member, d.reply, d.giop)
}

// sigTable builds the four rows: a request, a pre-prepare carrying it, a view
// change whose prepared certificate carries it, and a SMIOP data payload
// signed as grp/r2 signs it.
func sigTable(t *testing.T) []sigCase {
	ids, auths, privs := sigKeys(t)
	sign := func(m Message) Message {
		if req, ok := m.(*Request); ok {
			signIn(auths[req.ClientID], m, ids)
		} else {
			signIn(auths[ids[m.sender()]], m, ids)
		}
		return m
	}
	req := sign(&Request{ClientID: "client:x", ClientSeq: 7, Op: sigPayload(), ReplyTo: "client/x"}).(*Request)
	pp := sign(&PrePrepare{View: 0, Seq: 3, Digest: BatchDigest([]*Request{req}),
		Requests: []*Request{req}, Replica: 0}).(*PrePrepare)
	prepares := []*Prepare{
		sign(&Prepare{View: 0, Seq: 3, Digest: pp.Digest, Replica: 1}).(*Prepare),
		sign(&Prepare{View: 0, Seq: 3, Digest: pp.Digest, Replica: 2}).(*Prepare),
	}
	ckpt := sign(&Checkpoint{Seq: 2, StateDigest: Digest{0x5e}, Replica: 3}).(*Checkpoint)
	vc := sign(&ViewChange{NewView: 1, LastStable: 2, CheckpointProof: []*Checkpoint{ckpt},
		Prepared: []*PreparedProof{{PrePrepare: pp, Prepares: prepares}}, Replica: 2}).(*ViewChange)

	pbftRow := func(name string, m Message, signer string, payload func(Message) []byte,
		context map[string]func(Message)) sigCase {
		wire := Encode(m)
		edits := make(map[string]func(any))
		for field, edit := range context {
			edit := edit
			edits[field] = func(v any) { edit(v.(Message)) }
		}
		return sigCase{
			name: name,
			fresh: func() any {
				back, err := Decode(wire)
				if err != nil {
					t.Fatal(err)
				}
				return back
			},
			verify: func(v any) bool {
				// What a receiver sees: the edited message, encoded and decoded.
				back, err := Decode(Encode(v.(Message)))
				return err == nil && verifyIn(auths[ids[1]], back, 1, ids)
			},
			payload:  func(v any) []byte { return payload(v.(Message)) },
			context:  edits,
			sig:      func(v any) []byte { return *v.(Message).sigRef() },
			signer:   privs[signer],
			preimage: func(v any) []byte { return signingBytes(v.(Message)) },
			rawSign:  func(v any, sig []byte) { *v.(Message).sigRef() = sig },
		}
	}
	reqEdits := func(at func(Message) *Request) map[string]func(Message) {
		return map[string]func(Message){
			"client id":  func(m Message) { at(m).ClientID = "grp/r0" },
			"client seq": func(m Message) { at(m).ClientSeq++ },
			"reply to":   func(m Message) { at(m).ReplyTo = "client/y" },
		}
	}
	with := func(a, b map[string]func(Message)) map[string]func(Message) {
		for k, v := range b {
			a[k] = v
		}
		return a
	}
	ppReq := func(m Message) *Request { return m.(*PrePrepare).Requests[0] }
	vcPP := func(m Message) *PrePrepare { return m.(*ViewChange).Prepared[0].PrePrepare }

	data := &smiopData{conn: 5, req: 11, domain: "grp", member: 2, reply: true, giop: sigPayload()}
	data.sig = SignDigest(privs[ids[2]], data.digest())
	pub2 := privs[ids[2]].Public().(ed25519.PublicKey)

	// A pre-prepare's signature covers its header; a backup takes one only
	// with its batch matching the digest (validBatch), so its row runs both.
	ppRow := pbftRow("pre-prepare", pp, ids[0], func(m Message) []byte { return ppReq(m).Op },
		with(reqEdits(ppReq), map[string]func(Message){
			"view":    func(m Message) { m.(*PrePrepare).View++ },
			"seq":     func(m Message) { m.(*PrePrepare).Seq++ },
			"digest":  func(m Message) { m.(*PrePrepare).Digest[0] ^= 1 },
			"replica": func(m Message) { m.(*PrePrepare).Replica = 3 },
		}))
	backup, err := NewReplica(Config{N: 4, F: 1, ID: 1, Group: "grp", Auth: auths[ids[1]]}, &logApp{}, &recEnv{})
	if err != nil {
		t.Fatal(err)
	}
	ppRow.verify = func(v any) bool {
		back, err := Decode(Encode(v.(Message)))
		return err == nil && backup.verify(back) && backup.validBatch(back.(*PrePrepare), false)
	}

	return []sigCase{
		pbftRow("request", req, "client:x", func(m Message) []byte { return m.(*Request).Op },
			reqEdits(func(m Message) *Request { return m.(*Request) })),
		ppRow,
		pbftRow("view-change", vc, ids[2], func(m Message) []byte { return vcPP(m).Requests[0].Op },
			with(reqEdits(func(m Message) *Request { return vcPP(m).Requests[0] }), map[string]func(Message){
				"new view":          func(m Message) { m.(*ViewChange).NewView++ },
				"last stable":       func(m Message) { m.(*ViewChange).LastStable++ },
				"replica":           func(m Message) { m.(*ViewChange).Replica = 3 },
				"checkpoint seq":    func(m Message) { m.(*ViewChange).CheckpointProof[0].Seq++ },
				"checkpoint digest": func(m Message) { m.(*ViewChange).CheckpointProof[0].StateDigest[1] ^= 1 },
				"prepared seq":      func(m Message) { vcPP(m).Seq++ },
				"prepared digest":   func(m Message) { vcPP(m).Digest[0] ^= 1 },
				"prepare sender":    func(m Message) { m.(*ViewChange).Prepared[0].Prepares[0].Replica = 3 },
			})),
		{
			name: "smiop data",
			fresh: func() any {
				c := *data
				c.giop = append([]byte(nil), data.giop...)
				c.sig = append([]byte(nil), data.sig...)
				return &c
			},
			verify: func(v any) bool {
				d := v.(*smiopData)
				return VerifyDigest(pub2, d.digest(), d.sig)
			},
			payload: func(v any) []byte { return v.(*smiopData).giop },
			context: map[string]func(any){
				"conn id":    func(v any) { v.(*smiopData).conn++ },
				"request id": func(v any) { v.(*smiopData).req++ },
				"domain":     func(v any) { v.(*smiopData).domain = "grq" },
				"member":     func(v any) { v.(*smiopData).member = 1 },
				"direction":  func(v any) { v.(*smiopData).reply = false },
			},
			sig:      func(v any) []byte { return v.(*smiopData).sig },
			signer:   privs[ids[2]],
			preimage: func(v any) []byte { return v.(*smiopData).preimage() },
			rawSign:  func(v any, sig []byte) { v.(*smiopData).sig = sig },
		},
	}
}

// TestDigestSignatureTamper: every signature covers the SHA-256 digest of
// its preimage, and the receiver's check still binds all of the signed
// object. On a 16 KiB payload, flipping its first, middle or last byte,
// editing any other signed field, or flipping any octet of the signature
// makes the receiver's check fail, and so does a raw Ed25519 signature over
// the preimage itself. A pre-prepare's preimage is its header, so its
// receiver's check is a backup's: the signature, then the batch against the
// digest.
func TestDigestSignatureTamper(t *testing.T) {
	for _, c := range sigTable(t) {
		t.Run(c.name, func(t *testing.T) {
			if !c.verify(c.fresh()) {
				t.Fatal("untampered original refused")
			}
			for _, at := range []int{0, sigPayloadSize / 2, sigPayloadSize - 1} {
				v := c.fresh()
				if p := c.payload(v); len(p) != sigPayloadSize {
					t.Fatalf("payload of %d bytes", len(p))
				}
				c.payload(v)[at] ^= 1
				if c.verify(v) {
					t.Errorf("payload byte %d flipped: accepted", at)
				}
			}
			for field, edit := range c.context {
				v := c.fresh()
				edit(v)
				if c.verify(v) {
					t.Errorf("%s edited: accepted", field)
				}
			}
			for i := 0; i < ed25519.SignatureSize; i++ {
				v := c.fresh()
				c.sig(v)[i] ^= 0x10
				if c.verify(v) {
					t.Errorf("signature octet %d flipped: accepted", i)
				}
			}
			v := c.fresh()
			c.rawSign(v, ed25519.Sign(c.signer, c.preimage(v)))
			if c.verify(v) {
				t.Error("raw Ed25519 signature over the preimage accepted")
			}
		})
	}
}

// TestDigestSignatureDomains: under one key, a PBFT signature does not pass
// as a SMIOP one over the same payload, nor the reverse, and neither preimage
// decodes as the other protocol's: a PBFT preimage starts with its type octet
// (1–11), a SMIOP one with the high octet of a CDR string length (0). A
// batched reply's root signature covers a third form, starting with 'i', and
// crosses with none of them.
func TestDigestSignatureDomains(t *testing.T) {
	ids, auths, privs := sigKeys(t)
	op := sigPayload()
	req := &Request{ClientID: "client:x", ClientSeq: 1, Op: op, ReplyTo: "client/x"}
	SignMessage(auths["client:x"], req)
	pub := privs["client:x"].Public().(ed25519.PublicKey)
	data := smiop.DataSigningBytes(1, 1, "client:x", 0, false, op)
	dataDigest := smiop.DataSigningDigest(1, 1, "client:x", 0, false, op)

	if VerifyDigest(pub, dataDigest, req.Sig) {
		t.Error("PBFT request signature verified as a SMIOP data signature")
	}
	smiopSig := SignDigest(privs["client:x"], dataDigest)
	forged := &Request{ClientID: "client:x", ClientSeq: 1, Op: op, ReplyTo: "client/x", Sig: smiopSig}
	if verifyIn(auths[ids[1]], forged, 1, ids) {
		t.Error("SMIOP data signature verified as a PBFT request signature")
	}
	if pre := signingBytes(req); pre[0] < byte(MTRequest) || pre[0] > byte(MTFetchEntry) {
		t.Errorf("PBFT preimage starts with %d, not a type octet", pre[0])
	}
	if data[0] != 0 {
		t.Errorf("SMIOP preimage starts with %d, not 0", data[0])
	}
	if _, err := Decode(data); err == nil {
		t.Error("a SMIOP preimage decodes as a PBFT message")
	}

	// Root signatures: a root built over the data preimage's own leaf.
	priv := privs["client:x"]
	digestDigest := smiop.DigestSigningDigest(1, 1, "client:x", 0, op[:smiop.DigestSize])
	sign := func(d []byte) []byte { return SignDigest(priv, Digest(d)) }
	sigs, err := smiop.SignReplyBatch([][32]byte{dataDigest, digestDigest}, sign)
	if err != nil {
		t.Fatal(err)
	}
	b, err := smiop.ParseBatchedSig(sigs[0])
	if err != nil {
		t.Fatal(err)
	}
	root := b.Root(dataDigest)
	rootPre := append([]byte("itdos-reply-root"), root[:]...)
	if smiop.RootDigest(root) != sha256.Sum256(rootPre) || !VerifyDigest(pub, sha256.Sum256(rootPre), b.Sig) {
		t.Fatal("root signature refused over its own preimage's digest")
	}
	if pre := rootPre[0]; pre == 0 || (pre >= byte(MTRequest) && pre <= byte(MTFetchEntry)) {
		t.Errorf("root preimage starts with %d: a SMIOP length or a PBFT type octet", pre)
	}
	if _, err := Decode(rootPre); err == nil {
		t.Error("a root preimage decodes as a PBFT message")
	}
	for name, d := range map[string]Digest{"data": dataDigest, "digest": digestDigest,
		"PBFT": sha256.Sum256(signingBytes(req))} {
		if VerifyDigest(pub, d, b.Sig) {
			t.Errorf("root signature verified as a %s signature", name)
		}
		if VerifyDigest(pub, smiop.RootDigest(root), SignDigest(priv, d)) {
			t.Errorf("%s signature verified as a root signature", name)
		}
	}
	forgedReq := &Request{ClientID: "client:x", ClientSeq: 1, Op: op, ReplyTo: "client/x", Sig: b.Sig}
	if verifyIn(auths[ids[1]], forgedReq, 1, ids) {
		t.Error("root signature verified as a PBFT request signature")
	}
}

// TestRequestDigestOnce: every request a sample message carries — on its
// own, in a pre-prepare's batch, in a view change's certificates or a new
// view — has, once decoded, the digest of its own standalone encoding up to
// its tag vector and the signing digest of its signing bytes, and returns
// both without encoding or hashing again. A request decoded from tampered
// bytes has the tampered request's digest.
func TestRequestDigestOnce(t *testing.T) {
	var reqs func(m Message) []*Request
	reqs = func(m Message) []*Request {
		switch msg := m.(type) {
		case *Request:
			return []*Request{msg}
		case *PrePrepare:
			return msg.Requests
		case *ViewChange:
			var out []*Request
			for _, p := range msg.Prepared {
				out = append(out, reqs(p.PrePrepare)...)
			}
			return out
		case *NewView:
			var out []*Request
			for _, vc := range msg.ViewChanges {
				out = append(out, reqs(vc)...)
			}
			for _, pp := range msg.PrePrepares {
				out = append(out, reqs(pp)...)
			}
			return out
		}
		return nil
	}
	seen := 0
	for name, m := range wireSamples(t) {
		back, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := reqs(back)
		if name == "pre-prepare-batch" && len(got) != 3 {
			t.Fatalf("%s: %d requests, want 3", name, len(got))
		}
		for i, req := range got {
			seen++
			if len(req.Tags) != 4*MACSize {
				t.Fatalf("%s request %d: %d tag octets, want a vector of four", name, i, len(req.Tags))
			}
			if want := Digest(sha256.Sum256(untagged(req))); req.Digest() != want {
				t.Errorf("%s request %d: digest %s, want %s", name, i, req.Digest(), want)
			}
			if want := Digest(sha256.Sum256(signingBytes(req))); signingDigest(req) != want {
				t.Errorf("%s request %d: signing digest %s, want %s", name, i, signingDigest(req), want)
			}
			if allocs := testing.AllocsPerRun(10, func() { _, _ = req.Digest(), signingDigest(req) }); allocs != 0 {
				t.Errorf("%s request %d: Digest or signingDigest allocates %.0f times: it encodes again", name, i, allocs)
			}
		}
	}
	if seen < 3 {
		t.Fatalf("samples carry only %d requests", seen)
	}

	// The digests hash the encoding as it streams, Op where it lies: every
	// alignment the fields after Op can take must give the hashes of the
	// encoding up to the tag vector and Encode's length, signed or not,
	// tagged or not.
	for idLen := 0; idLen < 8; idLen++ {
		for opLen := 0; opLen < 17; opLen++ {
			for _, sig := range [][]byte{nil, bytes.Repeat([]byte{0x5A}, 64), {0x5A, 0x5B, 0x5C}} {
				for _, tags := range [][]byte{nil, bytes.Repeat([]byte{0x7E}, 4*MACSize)} {
					req := &Request{ClientID: strings.Repeat("c", idLen), ClientSeq: 7,
						Op: bytes.Repeat([]byte{0xC3}, opLen), ReplyTo: strings.Repeat("r", opLen%5), Sig: sig, Tags: tags}
					if req.Digest() != Digest(sha256.Sum256(untagged(req))) || req.Size() != len(Encode(req)) ||
						signingDigest(req) != Digest(sha256.Sum256(signingBytes(req))) {
						t.Fatalf("id %d, op %d, sig %d octets, tags %d octets: digests or size differ from the encoding's",
							idLen, opLen, len(sig), len(tags))
					}
				}
			}
		}
	}

	req := wireSamples(t)["request"].(*Request)
	wire := Encode(req)
	for i := range wire {
		tampered := append([]byte(nil), wire...)
		tampered[i] ^= 0x01
		m, err := Decode(tampered)
		if err != nil {
			continue
		}
		back, ok := m.(*Request)
		if !ok {
			continue
		}
		if want := Digest(sha256.Sum256(untagged(back))); back.Digest() != want {
			t.Fatalf("byte %d flipped: digest %s, want the tampered request's %s", i, back.Digest(), want)
		}
		if back.Digest() == req.Digest() && string(untagged(back)) != string(untagged(req)) {
			t.Fatalf("byte %d flipped: tampered request kept the original digest", i)
		}
	}
}

// TestOpDigest: a request hashes its Op once, and both of its digests cover
// that hash. Signed or decoded, OpDigest is SHA-256 of the Op the request
// holds; flipping the first, a middle or the last byte of Op on the wire
// changes OpDigest, Digest and the signing digest of the request decoded
// from it, and the signature no longer verifies.
func TestOpDigest(t *testing.T) {
	ids, auths, _ := sigKeys(t)
	req := &Request{ClientID: "client:x", ClientSeq: 7, Op: sigPayload(), ReplyTo: "client/x"}
	SignMessage(auths["client:x"], req)
	if req.OpDigest() != Digest(sha256.Sum256(req.Op)) {
		t.Fatal("a signed request's op digest is not SHA-256 of its Op")
	}
	wire := Encode(req)
	at := bytes.Index(wire, req.Op)
	if at < 0 {
		t.Fatal("Op is not in the encoding")
	}
	for _, i := range []int{0, sigPayloadSize / 2, sigPayloadSize - 1} {
		tampered := bytes.Clone(wire)
		tampered[at+i] ^= 1
		m, err := Decode(tampered)
		if err != nil {
			t.Fatal(err)
		}
		back := m.(*Request)
		if back.OpDigest() != Digest(sha256.Sum256(back.Op)) {
			t.Errorf("Op byte %d flipped: op digest is not SHA-256 of the decoded Op", i)
		}
		if back.OpDigest() == req.OpDigest() || back.Digest() == req.Digest() || signingDigest(back) == signingDigest(req) {
			t.Errorf("Op byte %d flipped: op digest, digest or signing digest unchanged", i)
		}
		if verifyIn(auths[ids[1]], back, 1, ids) {
			t.Errorf("Op byte %d flipped: signature still verifies", i)
		}
	}
}

// untagged is the request's digest form: its standalone encoding up to its
// tag vector with Op replaced by SHA-256 of Op, hashed here afresh. It is
// what its digest hashes.
func untagged(req *Request) []byte {
	op := sha256.Sum256(req.Op)
	form := Request{ClientID: req.ClientID, ClientSeq: req.ClientSeq, Op: op[:], ReplyTo: req.ReplyTo, Sig: req.Sig}
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(byte(MTRequest))
	form.marshalUntagged(e)
	return e.Bytes()
}

// TestPrePrepareBindsItsBatch: a pre-prepare's signature covers its header
// alone, so the primary's signature stays good when a request under it is
// edited, swapped, added or dropped. The batch digest refuses each of those
// at all three places a pre-prepare is admitted — as a backup's proposal, in
// a view change's prepared certificate, and among a new view's
// re-proposals — and the untampered batch passes at each.
func TestPrePrepareBindsItsBatch(t *testing.T) {
	fx, _ := newPhaseFixture(t)
	other := &Request{ClientID: "client:y", ClientSeq: 1, Op: []byte("op"), ReplyTo: "client/y"}
	SignMessage(fx.auths["client:y"], other)
	edited := func(edit func(*Request)) []*Request {
		c := &Request{ClientID: fx.req.ClientID, ClientSeq: fx.req.ClientSeq, Op: bytes.Clone(fx.req.Op),
			ReplyTo: fx.req.ReplyTo, Sig: bytes.Clone(fx.req.Sig)}
		edit(c)
		return []*Request{c}
	}
	batches := map[string][]*Request{
		"op edited":             edited(func(r *Request) { r.Op[0] ^= 1 }),
		"client seq edited":     edited(func(r *Request) { r.ClientSeq++ }),
		"client signature bent": edited(func(r *Request) { r.Sig[0] ^= 1 }),
		"swapped":               {other},
		"added":                 {fx.req, other},
		"dropped":               nil,
	}
	backup := func() *Replica {
		r, err := NewReplica(Config{N: 4, F: 1, ID: 1, Group: "grp", Auth: fx.auths[fx.ids[1]]}, &logApp{}, &recEnv{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// proposal is replica by's pre-prepare of fx.req's digest in view, over
	// reqs; its signature is good whatever reqs holds.
	proposal := func(view uint64, by ReplicaID, reqs []*Request) *PrePrepare {
		pp := &PrePrepare{View: view, Seq: 1, Digest: fx.d, Requests: reqs, Replica: by}
		signIn(fx.auths[fx.ids[by]], pp, fx.ids)
		if !verifyIn(fx.auths[fx.ids[1]], pp, 1, fx.ids) {
			t.Fatal("fixture: the primary's signature does not verify")
		}
		return pp
	}
	viewChange := func(by ReplicaID, reqs []*Request) *ViewChange {
		proof := &PreparedProof{PrePrepare: proposal(0, 0, reqs)}
		for _, id := range []ReplicaID{2, 3} {
			p := &Prepare{Seq: 1, Digest: fx.d, Replica: id}
			signIn(fx.auths[fx.ids[id]], p, fx.ids)
			proof.Prepares = append(proof.Prepares, p)
		}
		vc := &ViewChange{NewView: 2, Prepared: []*PreparedProof{proof}, Replica: by}
		signIn(fx.auths[fx.ids[by]], vc, fx.ids)
		return vc
	}
	sites := []struct {
		name string
		// admit feeds reqs to a fresh backup at the site and reports whether
		// it took them.
		admit func(reqs []*Request) bool
	}{
		{"pre-prepare", func(reqs []*Request) bool {
			r := backup()
			r.HandleMessage(Encode(proposal(0, 0, reqs)))
			return r.log[1] != nil && r.log[1].prePrepare != nil
		}},
		{"view change", func(reqs []*Request) bool {
			r := backup()
			r.HandleMessage(Encode(viewChange(2, reqs)))
			return len(r.viewChanges[2]) == 1
		}},
		{"new view", func(reqs []*Request) bool {
			r := backup()
			vcs := []*ViewChange{viewChange(0, []*Request{fx.req}), viewChange(2, []*Request{fx.req}),
				viewChange(3, []*Request{fx.req})}
			nv := &NewView{View: 2, ViewChanges: vcs, PrePrepares: []*PrePrepare{proposal(2, 2, reqs)}, Replica: 2}
			signIn(fx.auths[fx.ids[2]], nv, fx.ids)
			r.HandleMessage(Encode(nv))
			return r.view == 2
		}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			if !site.admit([]*Request{fx.req}) {
				t.Fatal("the untampered batch is refused")
			}
			for name, reqs := range batches {
				if site.admit(reqs) {
					t.Errorf("%s: accepted under the primary's signature", name)
				}
			}
		})
	}
}
