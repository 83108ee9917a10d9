package main

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/cluster"
	"itdos/internal/dprf"
	"itdos/internal/giop"
	"itdos/internal/orb"
	"itdos/internal/pbft"
	"itdos/internal/pool"
	"itdos/internal/seckey"
	"itdos/internal/smiop"
	"itdos/internal/transport"
	"itdos/internal/transport/tcp"
	"itdos/internal/vote"
)

// replayIters is how many times the replay walks one call's path.
const replayIters = 2000

// span is one timed call into a layer. Spans of one replayed call share
// its iteration number as parent.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// replay times one call's path through each layer's public functions, from
// outside the program: the spans are recorded here, around the calls into
// the layers, and no product code is touched.
type replay struct {
	t0    time.Time
	iter  int
	spans []span
}

func (r *replay) span(name string, fn func()) {
	s := time.Since(r.t0)
	fn()
	e := time.Since(r.t0)
	r.spans = append(r.spans, span{Name: name, Start: int64(s), End: int64(e), Parent: r.iter})
}

// medians reduces the spans to one median duration per name, in ns.
func (r *replay) medians() map[string]value {
	by := map[string][]float64{}
	for _, s := range r.spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start))
	}
	out := make(map[string]value, len(by))
	for name, d := range by {
		out[name] = value{v: median(d), n: len(d)}
	}
	return out
}

// replayError carries a failed step out of the replay loop, whose steps
// are closures; replayLayers turns it back into its returned error.
type replayError struct{ err error }

func must(err error) {
	if err != nil {
		panic(replayError{err})
	}
}

// replayLayers replays the workload's first generated call through every
// layer and stores "<module>.<what>_ns" medians (and allocs/op where
// testing.AllocsPerRun applies) in m. The spans go to
// out/trace_<workload>.json.
func replayLayers(p *paths, w *workload, in *input, m results) (err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(replayError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("replay: %w", re.err)
		}
	}()
	const domain, client = "calc", "load-c0"
	reg := cluster.CalcRegistry()
	opDef, err := reg.Lookup(cluster.CalcIface, in.op())
	if err != nil {
		return err
	}
	order := cdr.BigEndian
	adapter := orb.NewAdapter(reg)
	if err := adapter.Register(cluster.CalcKey, cluster.CalcIface, cluster.CalcServant()); err != nil {
		return err
	}

	// Identities and keys, as the deployment derives them.
	ring := pbft.NewKeyring()
	secret := []byte("benchmark-replay")
	clientPriv, err := pbft.DeriveIdentity(client, secret, ring)
	if err != nil {
		return err
	}
	clientAuth := pbft.NewEd25519Auth(client, clientPriv, ring)
	n, f := replicas, 1
	elemPriv := make([]ed25519.PrivateKey, n)
	for i := range elemPriv {
		if elemPriv[i], err = pbft.DeriveIdentity(fmt.Sprintf("%s/r%d", domain, i), secret, ring); err != nil {
			return err
		}
	}
	verify := func(dom string, member uint32, msg, sig []byte) bool {
		id := dom
		if dom == domain {
			id = fmt.Sprintf("%s/r%d", domain, member)
		}
		pub, ok := ring.Lookup(id)
		return ok && ed25519.Verify(pub, msg, sig)
	}
	key := seckey.Pairwise(secret, "gm/r0", client)
	clientInfo := smiop.PeerInfo{Name: client, N: 1, F: 0}
	domInfo := smiop.PeerInfo{Name: domain, N: n, F: f}
	clientConn, err := smiop.NewConnection(7, clientInfo, 0, domInfo, key)
	if err != nil {
		return err
	}
	clientStream, err := smiop.NewStream(clientConn, smiop.StreamConfig{Registry: reg, VerifySig: verify})
	if err != nil {
		return err
	}
	var decided *smiop.MessageVal
	clientStream.OnMessage = func(val *smiop.MessageVal, _ *vote.Decision) { decided = val }
	elemConn := make([]*smiop.Connection, n)
	for i := range elemConn {
		if elemConn[i], err = smiop.NewConnection(7, domInfo, i, clientInfo, key); err != nil {
			return err
		}
	}
	sealCh := seckey.NewChannel(key, "replay")
	openCh := seckey.NewChannel(key, "replay")

	r := &replay{t0: time.Now()}
	poolBefore := pool.ReadStats()
	fragments := 0
	var (
		body, giopReq, sealed, wire, frame []byte
		req                                *giop.Request
		reply                              *giop.Reply
		frames                             []*pool.Buffer
		preq                               *pbft.Request
		pp                                 *pbft.PrePrepare
	)
	for r.iter = 0; r.iter < replayIters; r.iter++ {
		id := uint64(r.iter + 1)
		// The box's speed during this iteration (see box.go).
		r.span("box.verify", func() { ed25519.Verify(spinPub, spinMsg, spinSig) })
		// Client side, outbound.
		r.span("cdr.marshal", func() {
			body, err = cdr.Marshal(opDef.ParamsType(), in.args(), order)
		})
		must(err)
		req = &giop.Request{RequestID: id, ObjectKey: cluster.CalcKey, Interface: cluster.CalcIface,
			Operation: in.op(), ResponseExpected: true, Body: body}
		r.span("giop.encode", func() { giopReq = giop.AppendRequest(giopReq[:0], order, req) })
		r.span("seckey.seal", func() { sealed, err = sealCh.Seal(giopReq) })
		must(err)
		r.span("smiop.seal_wire", func() {
			frames, err = clientConn.SealGIOPWire(id, false,
				func(dst []byte) []byte { return giop.AppendRequest(dst, order, req) },
				func(msg []byte) []byte { return ed25519.Sign(clientPriv, msg) }, 0)
		})
		must(err)
		fragments = len(frames)
		// Ordering: the first fragment travels as a signed PBFT request.
		preq = &pbft.Request{ClientID: client, ClientSeq: id, Op: frames[0].B, ReplyTo: client + "/tx/" + domain}
		r.span("pbft.sign", func() { pbft.SignMessage(clientAuth, preq) })
		pp = &pbft.PrePrepare{View: 0, Seq: id, Requests: []*pbft.Request{preq}, Replica: 0}
		r.span("pbft.batch_digest", func() { pp.Digest = pbft.BatchDigest(pp.Requests) })
		r.span("pbft.encode", func() { wire = pbft.Encode(pp) })
		r.span("transport.tcp.frame", func() {
			frame, err = tcp.AppendFrame(frame[:0], transport.NodeID(domain+"/r0"), transport.NodeID(domain+"/r1"), wire)
			if err == nil {
				_, _, _, err = tcp.DecodeFrame(frame[4:])
			}
		})
		must(err)
		var msg pbft.Message
		r.span("pbft.decode", func() { msg, err = pbft.Decode(wire) })
		must(err)
		ok := false
		r.span("pbft.verify", func() { ok = pbft.VerifyMessage(clientAuth, msg.(*pbft.PrePrepare).Requests[0]) })
		if !ok {
			return fmt.Errorf("replay: request signature rejected")
		}
		// Replica side, inbound: open every fragment.
		var plain []byte
		r.span("smiop.open", func() {
			for _, fr := range frames {
				var env *smiop.Envelope
				if env, err = smiop.DecodeEnvelope(fr.B); err != nil {
					return
				}
				if plain, err = elemConn[0].OpenData(env); err != nil {
					return
				}
			}
		})
		must(err)
		smiop.ReleaseFrames(frames)
		r.span("seckey.open", func() { plain, err = openCh.Open(sealed) })
		must(err)
		if len(plain) != len(giopReq) {
			return fmt.Errorf("replay: opened %d bytes, sealed %d", len(plain), len(giopReq))
		}
		var gm *giop.Message
		r.span("giop.decode", func() { gm, err = giop.Decode(giopReq) })
		must(err)
		r.span("cdr.unmarshal", func() { _, err = cdr.Unmarshal(opDef.ParamsType(), gm.Request.Body, gm.Order) })
		must(err)
		r.span("orb.dispatch", func() { reply = adapter.Dispatch(gm.Request, gm.Order, nil, order) })
		if reply.Status != giop.StatusNoException {
			return fmt.Errorf("replay: dispatch raised %s", reply.Exception)
		}
		// Client side, inbound: every replica's reply through the voter.
		var envs []*smiop.Envelope
		for i := 0; i < n; i++ {
			priv := elemPriv[i]
			rf, err := elemConn[i].SealGIOPWire(id, true,
				func(dst []byte) []byte { return giop.AppendReply(dst, order, reply) },
				func(msg []byte) []byte { return ed25519.Sign(priv, msg) }, 0)
			must(err)
			for _, fr := range rf {
				env, err := smiop.DecodeEnvelope(append([]byte(nil), fr.B...))
				must(err)
				envs = append(envs, env)
			}
			smiop.ReleaseFrames(rf)
		}
		decided = nil
		r.span("smiop.deliver_vote", func() {
			if err = clientStream.ExpectReply(id, cluster.CalcIface, in.op()); err != nil {
				return
			}
			for _, env := range envs {
				if derr := clientStream.Deliver(env); derr != nil && err == nil {
					err = derr
				}
			}
		})
		must(err)
		if decided == nil {
			return fmt.Errorf("replay: %d replies did not decide", n)
		}
		results := decided.Body
		voter, err := vote.NewVoter(vote.Config{N: n, F: f, Comparator: vote.Exact{TC: opDef.ResultsType()}})
		must(err)
		r.span("vote.decide", func() {
			for i := 0; i < n; i++ {
				_, err = voter.Submit(vote.Submission{Member: i, Value: results})
			}
		})
		must(err)
		if !voter.Decided() {
			return fmt.Errorf("replay: voter did not decide on %d equal values", n)
		}
	}
	poolAfter := pool.ReadStats()

	// Connection establishment: one DPRF share per Group Manager element,
	// combined by each recipient.
	params := dprf.Params{N: n, F: f}
	parties, err := dprf.Setup(params, secret)
	if err != nil {
		return err
	}
	common := dprf.NewCommonInput(secret)
	for r.iter = 0; r.iter < replayIters; r.iter++ {
		x := common.Next("conn")
		shares := make([]*dprf.Share, params.Quorum())
		for i := range shares {
			i := i
			if i == 0 {
				r.span("dprf.eval_share", func() { shares[i] = parties[i].EvalShare(x) })
			} else {
				shares[i] = parties[i].EvalShare(x)
			}
		}
		r.span("dprf.combine", func() { _, _, err = dprf.Combine(params, shares) })
		must(err)
	}

	// Like the end-to-end metrics, replayed times are reported as on a box
	// at nominal speed, so that the budget adds like to like.
	medians := r.medians()
	verifyUS := medians["box.verify"].v / 1e3
	delete(medians, "box.verify")
	for name, v := range medians {
		m.set(name+"_ns", atNominal(v.v, verifyUS), v.n)
	}
	m.set("smiop.fragments_per_msg", float64(fragments), replayIters)
	gets := float64(poolAfter.Gets - poolBefore.Gets)
	if gets > 0 {
		m.set("pool.hit_share", 1-float64(poolAfter.News-poolBefore.News)/gets, int(gets))
	}

	// Allocations per operation, on the codec and seal paths a pooled or
	// fused implementation would change.
	id := uint64(replayIters)
	allocs := map[string]func(){
		"cdr.marshal":   func() { _, _ = cdr.Marshal(opDef.ParamsType(), in.args(), order) },
		"cdr.unmarshal": func() { _, _ = cdr.Unmarshal(opDef.ParamsType(), body, order) },
		"giop.encode":   func() { giopReq = giop.AppendRequest(giopReq[:0], order, req) },
		"giop.decode":   func() { _, _ = giop.Decode(giopReq) },
		"smiop.seal_wire": func() {
			id++
			fr, _ := clientConn.SealGIOPWire(id, false,
				func(dst []byte) []byte { return giop.AppendRequest(dst, order, req) },
				func(msg []byte) []byte { return ed25519.Sign(clientPriv, msg) }, 0)
			smiop.ReleaseFrames(fr)
		},
		"pbft.encode": func() { _ = pbft.Encode(pp) },
		"pbft.decode": func() { _, _ = pbft.Decode(wire) },
		"transport.tcp.frame": func() {
			frame, _ = tcp.AppendFrame(frame[:0], "calc/r0", "calc/r1", wire)
			_, _, _, _ = tcp.DecodeFrame(frame[4:])
		},
	}
	for name, fn := range allocs {
		m.set(name+"_allocs", testing.AllocsPerRun(200, fn), 200)
	}

	before := boxVerifyUS()
	rtt, err := tcpRTT(len(wire))
	if err != nil {
		return err
	}
	m.set("transport.tcp.rtt_us", atNominal(median(rtt), (before+boxVerifyUS())/2), len(rtt))

	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{w.name, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(p.out, "trace_"+w.name+".json"), data, 0o644)
}

// tcpRTT ping-pongs a payload of the workload's frame size between two of
// the product's TCP transports over loopback and returns each round trip
// in microseconds.
func tcpRTT(size int) ([]float64, error) {
	hosts := map[string][]string{"a": {"ping"}, "b": {"pong"}}
	ta, err := tcp.New(tcp.Config{Process: "a", Listen: "127.0.0.1:0", Hosts: hosts})
	if err != nil {
		return nil, err
	}
	defer ta.Close()
	tb, err := tcp.New(tcp.Config{Process: "b", Listen: "127.0.0.1:0", Hosts: hosts})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	ta.SetPeers(map[string]string{"b": tb.Addr()})
	tb.SetPeers(map[string]string{"a": ta.Addr()})
	back := make(chan struct{}, 1)
	ta.AddNode("ping", transport.HandlerFunc(func(transport.NodeID, []byte) { back <- struct{}{} }))
	tb.AddNode("pong", transport.HandlerFunc(func(_ transport.NodeID, payload []byte) {
		tb.Send("pong", "ping", payload)
	}))
	if err := ta.Start(); err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	payload := make([]byte, size)
	out := make([]float64, 0, replayIters)
	const patience = 5 * time.Second
	lost := time.NewTimer(patience)
	defer lost.Stop()
	for i := 0; i < replayIters+50; i++ {
		t0 := time.Now()
		ta.Post(func() { ta.Send("ping", "pong", payload) })
		select {
		case <-back:
		case <-lost.C:
			return nil, fmt.Errorf("tcp ping-pong: no echo of %d bytes within %v of the last", size, patience)
		}
		if !lost.Stop() {
			<-lost.C
		}
		lost.Reset(patience)
		if i >= 50 { // the first rounds include the dials
			out = append(out, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return out, nil
}
