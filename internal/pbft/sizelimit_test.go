package pbft

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"itdos/internal/obs"
	"itdos/internal/transport"
	"itdos/internal/transport/tcp"
)

// oversizeOp is the op of a request just over MaxRequestBytes for client:x
// of the phase fixture.
func oversizeOp(fx *phaseFixture) []byte {
	req := &Request{ClientID: "client:x", ClientSeq: 2, ReplyTo: "client/x"}
	SignMessage(fx.auths["client:x"], req)
	return make([]byte, MaxRequestBytes-req.Size()+1)
}

// TestOversizeRequestRefused: a request over MaxRequestBytes is dropped on
// arrival unread — no signature check, no forwarding, no timer, no state —
// a pre-prepare that carries one, or whose batch is over MaxBatchBytes, is
// refused, and an honest client does not build one.
func TestOversizeRequestRefused(t *testing.T) {
	fx, _ := newPhaseFixture(t)
	big := &Request{ClientID: "client:x", ClientSeq: 2, Op: oversizeOp(fx), ReplyTo: "client/x"}
	SignMessage(fx.auths["client:x"], big)
	if big.Size() <= MaxRequestBytes || big.Size() > MaxRequestBytes+8 {
		t.Fatalf("fixture: request of %d bytes", big.Size())
	}
	t.Run("arrival", func(t *testing.T) {
		for _, stage := range []string{"preprepared", "executed"} {
			r, env, auth := fx.replica(t, stage)
			state, sent, checked := dumpReplica(r), len(env.out), auth.checks()
			r.HandleMessage(Encode(big))
			if auth.checks() != checked || dumpReplica(r) != state || len(env.out) != sent {
				t.Errorf("%s: %d checks, sent %v, state changed %v", stage,
					auth.checks()-checked, env.out[sent:], dumpReplica(r) != state)
			}
		}
	})
	t.Run("pre-prepare", func(t *testing.T) {
		half := &Request{ClientID: "client:y", ClientSeq: 1, Op: make([]byte, MaxRequestBytes-200), ReplyTo: "client/y"}
		SignMessage(fx.auths["client:y"], half)
		var many []*Request
		for size := 0; size <= MaxBatchBytes; size += half.Size() {
			req := &Request{ClientID: fmt.Sprintf("client:y%d", len(many)), ClientSeq: 1, Op: half.Op, ReplyTo: "client/y"}
			req.Sig = half.Sig // refused on size before any signature is read
			many = append(many, req)
		}
		for name, batch := range map[string][]*Request{
			"oversize request": {fx.req, big},
			"oversize batch":   many,
		} {
			r, env, auth := fx.replica(t, "executed")
			sent, checked := len(env.out), auth.checks()
			r.HandleMessage(fx.wire(&PrePrepare{Seq: 2, Digest: BatchDigest(batch), Requests: batch}, false))
			if len(env.out) != sent || r.log[2] != nil {
				t.Errorf("%s: accepted, sent %v", name, env.out[sent:])
			}
			if auth.checks() != checked+1 {
				t.Errorf("%s: %d checks, want only the pre-prepare's", name, auth.checks()-checked)
			}
		}
	})
	t.Run("client", func(t *testing.T) {
		env := &recEnv{}
		cli, err := NewClient(ClientConfig{ID: "client:x", Group: "grp", ReplyAddr: "client/x", N: 4, F: 1,
			Auth: fx.auths["client:x"]}, env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Invoke(big.Op); err == nil || len(env.out) != 0 || cli.LastSeq() != 0 {
			t.Fatalf("oversize op: err %v, sent %d, last seq %d", err, len(env.out), cli.LastSeq())
		}
		if seq, err := cli.Invoke([]byte("fits")); err != nil || seq != 1 {
			t.Fatalf("next op: seq %d, err %v", seq, err)
		}
	})
}

// TestLargestPrePrepareFitsFrame: whatever a primary has pending — requests
// at the size limit, their tag vectors counted, or a full MaxBatchWire of
// them — every pre-prepare it
// proposes fits one TCP frame between the longest replica identities of the
// group, because flushPending closes each batch at MaxBatchBytes.
func TestLargestPrePrepareFitsFrame(t *testing.T) {
	if maxFrameBytes != tcp.DefaultMaxFrame {
		t.Fatalf("maxFrameBytes %d, tcp.DefaultMaxFrame %d", maxFrameBytes, tcp.DefaultMaxFrame)
	}
	group := strings.Repeat("g", 120)
	ids := Identities(group, 4)
	priv, err := DeriveIdentity(ids[0], []byte("largest"), NewKeyring())
	if err != nil {
		t.Fatal(err)
	}
	auth := NewEd25519Auth(ids[0], priv, NewKeyring())
	client := strings.Repeat("c", 200)
	for _, size := range []int{MaxRequestBytes, MaxRequestBytes/2 + 1, MaxBatchBytes / MaxBatchWire} {
		env := &ppEnv{}
		r, err := NewReplica(Config{N: 4, F: 1, ID: 0, Group: group, Auth: auth, MaxBatch: MaxBatchWire,
			WindowSize: 1 << 12, CheckpointInterval: 1 << 11}, &logApp{}, env)
		if err != nil {
			t.Fatal(err)
		}
		r.batchTimerArmed = true // hold every arrival until the flush below
		for i := 0; i <= MaxBatchWire; i++ {
			req := &Request{ClientID: fmt.Sprintf("%s%d", client, i), ClientSeq: 1, ReplyTo: client,
				Sig: make([]byte, 64), Tags: make([]byte, 4*MACSize)}
			req.Op = make([]byte, size-req.Size())
			req.rehash()
			r.onRequest(req)
		}
		r.HandleBatchTimer()
		if len(env.pps) < 2 {
			t.Fatalf("%d-byte requests: %d pre-prepares", size, len(env.pps))
		}
		for _, pp := range env.pps {
			frame, err := tcp.AppendFrame(nil, transport.NodeID(ids[3]), transport.NodeID(ids[2]), pp)
			if err != nil {
				t.Fatal(err)
			}
			if body := len(frame) - 4; body > tcp.DefaultMaxFrame {
				t.Errorf("%d-byte requests: a %d-byte frame body, over %d", size, body, tcp.DefaultMaxFrame)
			}
		}
	}
}

// ppEnv keeps the pre-prepares a primary broadcasts.
type ppEnv struct {
	recEnv
	pps [][]byte
}

func (e *ppEnv) Broadcast(data []byte) {
	if len(data) > 0 && MsgType(data[0]) == MTPrePrepare {
		e.pps = append(e.pps, data)
	}
}

// TestOversizeRequestOverTCP: one client sends every replica a request a
// few octets under the TCP frame bound. No replica orders it, so no
// pre-prepare carrying it is ever refused by the transport, no backup waits
// for it into a view change, and another client's requests keep being
// ordered for several view timeouts. The timeout is far above what a
// scheduling stall on a loaded machine lasts, so a view change here is the
// defect, not noise.
func TestOversizeRequestOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and wall-clock timers; skipped in -short")
	}
	const n, viewTimeout = 4, 400 * time.Millisecond
	seed, ring := []byte("oversize-tcp"), NewKeyring()
	hosts := map[string][]string{"clients": {"client"}}
	for i := 0; i < n; i++ {
		hosts[fmt.Sprintf("p%d", i)] = []string{fmt.Sprintf("grp/r%d", i)}
	}
	procs := []string{"p0", "p1", "p2", "p3", "clients"}
	trs := make(map[string]*tcp.Transport)
	regs := make(map[string]*obs.Registry)
	addrs := make(map[string]string)
	for _, p := range procs {
		regs[p] = obs.NewRegistry()
		tr, err := tcp.New(tcp.Config{Process: p, Listen: "127.0.0.1:0", Hosts: hosts, Metrics: regs[p]})
		if err != nil {
			t.Fatal(err)
		}
		trs[p], addrs[p] = tr, tr.Addr()
	}
	// Calls go one at a time; the room is for what a run that already
	// failed may still deliver, so the loop never blocks on a stopped test.
	results := make(chan string, 64)
	var honest *Client
	for _, p := range procs {
		tr := trs[p]
		tr.SetPeers(addrs)
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		built := make(chan error, 1)
		tr.Post(func() {
			// Every process builds the whole group; the transport brings up
			// only what it hosts.
			g, err := NewSimGroup(tr, "grp", Config{N: n, F: 1, ViewTimeout: viewTimeout, Metrics: regs[p]},
				ring, seed, func(int) App { return &logApp{} })
			if err == nil && p == "clients" {
				honest, err = g.NewSimClient("client:honest", "client/honest", time.Second)
			}
			if err == nil && p == "clients" {
				honest.OnResult = func(seq uint64, _ []byte) { results <- fmt.Sprint(seq) }
				err = sendOversize(tr, ring, seed)
			}
			built <- err
		})
		if err := <-built; err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 1; time.Since(start) < 3*viewTimeout; i++ {
		trs["clients"].Post(func() {
			if _, err := honest.Invoke([]byte(fmt.Sprintf("op-%d", i))); err != nil {
				results <- err.Error()
			}
		})
		select {
		case got := <-results:
			if got != fmt.Sprint(i) {
				t.Fatalf("call %d: %s", i, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d not ordered", i)
		}
	}
	for _, p := range procs {
		counts := make(chan [2]uint64, 1)
		trs[p].Post(func() {
			counts <- [2]uint64{
				regs[p].Counter("tcp_frames_oversize_total", "dir=send").Value(),
				regs[p].Counter("pbft_view_changes_total", "group=grp").Value(),
			}
		})
		if c := <-counts; c != [2]uint64{} {
			t.Errorf("%s: %d oversize refusals, %d view changes", p, c[0], c[1])
		}
	}
}

// sendOversize signs, as client:byz, a request whose frame body to a
// replica is eight octets under the TCP bound, and sends it to all of them.
func sendOversize(tr *tcp.Transport, ring *Keyring, seed []byte) error {
	priv, err := DeriveIdentity("client:byz", seed, ring)
	if err != nil {
		return err
	}
	req := &Request{ClientID: "client:byz", ClientSeq: 1, ReplyTo: "client/byz"}
	SignMessage(NewEd25519Auth("client:byz", priv, ring), req)
	from, to := transport.NodeID("client/byz"), transport.NodeID("grp/r0")
	frame, err := tcp.AppendFrame(nil, from, to, Encode(req))
	if err != nil {
		return err
	}
	req.Op = make([]byte, tcp.DefaultMaxFrame-(len(frame)-4)-8)
	SignMessage(NewEd25519Auth("client:byz", priv, ring), req)
	for _, to := range Identities("grp", 4) {
		tr.Send(from, transport.NodeID(to), Encode(req))
	}
	return nil
}
