package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"itdos/internal/obs"
	"itdos/internal/transport"
)

// seqPayload is a payload whose every byte follows from its sequence number
// and length, so a receiver can check it byte for byte without a copy of
// what was sent. The first eight bytes (when there is room) are the number.
func seqPayload(seq uint64, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(seq*131 + uint64(i)*7)
	}
	if size >= 8 {
		binary.BigEndian.PutUint64(p, seq)
	}
	return p
}

func samePayload(got []byte, seq uint64) bool {
	return bytes.Equal(got, seqPayload(seq, len(got)))
}

// TestTCPGatherKeepsOrderAndBytes: bursts of frames from one byte to
// MaxFrame, queued together so that one write carries many, arrive in
// order and byte-identical; a burst costs fewer writes than frames.
func TestTCPGatherKeepsOrderAndBytes(t *testing.T) {
	hosts := map[string][]string{"pa": {"a"}, "pb": {"b"}}
	regA := obs.NewRegistry()
	ta, err := New(Config{Process: "pa", Listen: "127.0.0.1:0", Hosts: hosts, Metrics: regA})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(Config{Process: "pb", Listen: "127.0.0.1:0", Hosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{"pa": ta.Addr(), "pb": tb.Addr()}
	ta.SetPeers(addrs)
	tb.SetPeers(addrs)
	for _, tr := range []*Transport{ta, tb} {
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
	}

	const bursts, perBurst = 12, 40
	largest := DefaultMaxFrame - frameBodyLen("a", "b/inbox", nil)
	rng := rand.New(rand.NewSource(19))
	sizes := make([]int, bursts*perBurst)
	for i := range sizes {
		switch rng.Intn(20) {
		case 0:
			sizes[i] = largest - rng.Intn(2) // at and just under the bound
		case 1:
			sizes[i] = 1 + rng.Intn(gatherBytes) // alone reaches the byte bound
		case 2:
			sizes[i] = rng.Intn(2) // zero and one byte
		default:
			sizes[i] = 1 + rng.Intn(2048)
		}
	}

	type arrival struct {
		seq int
		ok  bool
	}
	got := make(chan arrival, len(sizes))
	next := 0
	tb.Post(func() {
		tb.AddNode("b/inbox", transport.HandlerFunc(func(_ transport.NodeID, p []byte) {
			// The one frame past the table is the fold at the end.
			got <- arrival{next, next == len(sizes) || len(p) == sizes[next] && samePayload(p, uint64(next))}
			next++
		}))
	})
	for b := 0; b < bursts; b++ {
		b := b
		// One loop turn queues the whole burst behind the sender.
		ta.Post(func() {
			for i := b * perBurst; i < (b+1)*perBurst; i++ {
				ta.Send("a", "b/inbox", seqPayload(uint64(i), sizes[i]))
			}
		})
	}
	for i := range sizes {
		select {
		case a := <-got:
			if a.seq != i || !a.ok {
				t.Fatalf("arrival %d: frame %d, intact %v (want %d bytes)", i, a.seq, a.ok, sizes[i])
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("timed out after %d of %d frames", i, len(sizes))
		}
	}
	// One more send folds the sender's counts into the registry.
	ta.Post(func() { ta.Send("a", "b/inbox", nil) })
	<-got
	frames := counterOnLoop(ta, regA.Counter("tcp_frames_sent_total"))
	writes := counterOnLoop(ta, regA.Counter("tcp_writes_total"))
	if frames != uint64(len(sizes))+1 {
		t.Fatalf("tcp_frames_sent_total = %d, want %d", frames, len(sizes)+1)
	}
	if writes == 0 || writes >= frames {
		t.Fatalf("tcp_writes_total = %d for %d frames: bursts were not gathered", writes, frames)
	}
	if n := counterOnLoop(ta, regA.Counter("tcp_frames_resent_total")); n != 0 {
		t.Fatalf("tcp_frames_resent_total = %d on an unbroken connection", n)
	}
}

// TestTCPLoneFrameOneWrite: with nothing queued behind it a frame is one
// write, as before the gather — writes equal frames at one caller.
func TestTCPLoneFrameOneWrite(t *testing.T) {
	ta, tb := twoProcs(t)
	got := make(chan struct{}, 1)
	tb.Post(func() {
		tb.AddNode("b/inbox", transport.HandlerFunc(func(transport.NodeID, []byte) { got <- struct{}{} }))
	})
	const n = 20
	for i := 0; i <= n; i++ { // the last send only folds the counts of the first n
		ta.Post(func() { ta.Send("a", "b/inbox", []byte("ping")) })
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	writes := counterOnLoop(ta, ta.cfg.Metrics.Counter("tcp_writes_total"))
	if writes != n {
		t.Fatalf("tcp_writes_total = %d after %d lone frames", writes, n)
	}
	depth := 0.0
	done := make(chan struct{})
	ta.Post(func() { depth = ta.cfg.Metrics.Gauge("tcp_send_queue_depth", "peer=pb").Value(); close(done) })
	<-done
	if depth != 1 {
		t.Fatalf("tcp_send_queue_depth{peer=pb} = %v with one frame in flight at a time", depth)
	}
}

// TestTCPReaderDoesNotHoldBackParsedFrame: one frame and half of the next
// in a single segment delivers the first at once; the second follows when
// its bytes do.
func TestTCPReaderDoesNotHoldBackParsedFrame(t *testing.T) {
	_, tb := twoProcs(t)
	got := make(chan string, 2)
	tb.Post(func() {
		tb.AddNode("b/inbox", transport.HandlerFunc(func(_ transport.NodeID, p []byte) { got <- string(p) }))
	})
	first, err := AppendFrame(nil, "a", "b/inbox", []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := AppendFrame(nil, "a", "b/inbox", []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	half := len(second) / 2 // past the length prefix, short of the body
	if _, err := conn.Write(append(append([]byte(nil), first...), second[:half]...)); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != "first" {
			t.Fatalf("delivered %q, want the first frame", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the complete frame waited for the incomplete one behind it")
	}
	select {
	case p := <-got:
		t.Fatalf("delivered %q from half a frame", p)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := conn.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != "second" {
			t.Fatalf("delivered %q, want the second frame", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the second frame never arrived")
	}
}

// TestUnwritten: a failed write of n bytes owes every frame the kernel did
// not take whole, the partly written one included.
func TestUnwritten(t *testing.T) {
	frames := []outFrame{
		{hdr: make([]byte, 4), payload: make([]byte, 1)},
		{hdr: make([]byte, 1)},
		{hdr: make([]byte, 4), payload: make([]byte, 3)},
	}
	for _, tc := range []struct {
		n    int64
		want int // frames still owed
	}{{0, 3}, {4, 3}, {5, 2}, {6, 1}, {7, 1}, {12, 1}, {13, 0}} {
		rest := unwritten(frames, tc.n)
		if len(rest) != tc.want {
			t.Errorf("unwritten(%d bytes) owes %d frames, want %d", tc.n, len(rest), tc.want)
		}
		if len(rest) > 0 && &rest[len(rest)-1].hdr[0] != &frames[2].hdr[0] {
			t.Errorf("unwritten(%d bytes) does not end with the last frame", tc.n)
		}
	}
}

// TestTCPBrokenConnectionLosesOnlyInFlight: the receiver drops the
// connection and its listener in the middle of a stream of bursts and comes
// back on the same address. What it parsed before the break is a gap-free
// prefix; what it parses after is gap-free to the end and starts above that
// prefix — nothing delivered twice, nothing out of order, and only frames
// the kernel had already taken are missing.
func TestTCPBrokenConnectionLosesOnlyInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hosts := map[string][]string{"pa": {"a"}, "pb": {"b"}}
	reg := obs.NewRegistry()
	ta, err := New(Config{
		Process: "pa", Hosts: hosts, Metrics: reg, Peers: map[string]string{"pb": addr},
		RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Start(); err != nil {
		t.Fatal(err)
	}
	defer ta.Close()

	// The sending side: bursts of numbered frames until told to stop.
	stop := make(chan struct{})
	sent := make(chan uint64, 1)
	go func() {
		var seq uint64
		rng := rand.New(rand.NewSource(23))
		for {
			select {
			case <-stop:
				sent <- seq
				return
			default:
			}
			first, n := seq, uint64(1+rng.Intn(30))
			seq += n
			ta.Post(func() {
				for s := first; s < first+n; s++ {
					ta.Send("a", "b/inbox", seqPayload(s, 8+int(s%1500)))
				}
			})
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// readSeqs parses frames off one accepted connection until it has count
	// of them, failing the test on a damaged one.
	readSeqs := func(l net.Listener, count int) []uint64 {
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return nil
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		br := bufio.NewReader(conn)
		var seqs []uint64
		for len(seqs) < count {
			body, err := readFrame(br, DefaultMaxFrame)
			if err != nil {
				t.Errorf("after %d frames: %v", len(seqs), err)
				return seqs
			}
			_, _, payload, err := DecodeFrame(body)
			if err != nil || len(payload) < 8 {
				t.Errorf("frame %d does not parse: %v", len(seqs), err)
				return seqs
			}
			seq := binary.BigEndian.Uint64(payload)
			if len(payload) != 8+int(seq%1500) || !samePayload(payload, seq) {
				t.Errorf("frame %d (seq %d) damaged", len(seqs), seq)
				return seqs
			}
			seqs = append(seqs, seq)
		}
		return seqs
	}
	before := readSeqs(ln, 500)
	ln.Close()
	time.Sleep(20 * time.Millisecond) // the sender meets a dead address for a while
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	after := readSeqs(ln2, 1500)
	close(stop)
	<-sent
	if t.Failed() {
		return
	}
	for i, s := range before {
		if s != uint64(i) {
			t.Fatalf("before the break: frame %d is seq %d", i, s)
		}
	}
	if after[0] <= before[len(before)-1] {
		t.Fatalf("seq %d delivered again after the break (prefix ended at %d)", after[0], before[len(before)-1])
	}
	for i := 1; i < len(after); i++ {
		if after[i] != after[i-1]+1 {
			t.Fatalf("after the break: seq %d follows %d", after[i], after[i-1])
		}
	}
	t.Logf("break cost %d frames in flight; %d re-sent", after[0]-before[len(before)-1]-1,
		counterOnLoop(ta, reg.Counter("tcp_frames_resent_total")))
}
