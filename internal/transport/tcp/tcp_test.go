package tcp

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"itdos/internal/obs"
	"itdos/internal/transport"
)

// twoProcs builds and starts two loopback transports, a and b, hosting
// the identity prefixes "a" and "b" respectively.
func twoProcs(t *testing.T) (*Transport, *Transport) {
	t.Helper()
	hosts := map[string][]string{"pa": {"a"}, "pb": {"b"}}
	ta, err := New(Config{Process: "pa", Listen: "127.0.0.1:0", Hosts: hosts, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(Config{Process: "pb", Listen: "127.0.0.1:0", Hosts: hosts, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{"pa": ta.Addr(), "pb": tb.Addr()}
	ta.SetPeers(addrs)
	tb.SetPeers(addrs)
	if err := ta.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ta.Close(); tb.Close() })
	return ta, tb
}

func TestTCPSendRemoteAndLocal(t *testing.T) {
	ta, tb := twoProcs(t)

	gotB := make(chan string, 1)
	tb.Post(func() {
		tb.AddNode("b/inbox", transport.HandlerFunc(func(from transport.NodeID, payload []byte) {
			gotB <- string(from) + "|" + string(payload)
		}))
	})
	gotA := make(chan string, 1)
	ta.Post(func() {
		ta.AddNode("a/inbox", transport.HandlerFunc(func(from transport.NodeID, payload []byte) {
			gotA <- string(from) + "|" + string(payload)
		}))
		// Remote: a → b over the socket.
		ta.Send("a", "b/inbox", []byte("over-tcp"))
		// Local: a → a via the loop's local queue.
		ta.Send("a", "a/inbox", []byte("loopback"))
	})

	for want, ch := range map[string]chan string{
		"a|over-tcp": gotB,
		"a|loopback": gotA,
	} {
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("delivery mismatch: got %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}
}

func TestTCPGhostSuppression(t *testing.T) {
	ta, tb := twoProcs(t)

	delivered := make(chan string, 4)
	tb.Post(func() {
		tb.AddNode("b/inbox", transport.HandlerFunc(func(_ transport.NodeID, payload []byte) {
			delivered <- string(payload)
		}))
	})
	ta.Post(func() {
		// A ghost registration: "b/ghost" routes to process pb, so pa must
		// ignore it rather than swallow pb's traffic.
		ta.AddNode("b/ghost", transport.HandlerFunc(func(transport.NodeID, []byte) {
			t.Error("ghost node received a delivery")
		}))
		// A ghost send: "b" is hosted by pb, so pa must drop it.
		ta.Send("b", "b/inbox", []byte("from-ghost"))
		// The hosted identity still works.
		ta.Send("a", "b/inbox", []byte("from-real"))
	})

	select {
	case got := <-delivered:
		if got != "from-real" {
			t.Fatalf("ghost send was delivered: %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delivery")
	}
}

func TestTCPAfterAndStop(t *testing.T) {
	ta, _ := twoProcs(t)

	fired := make(chan struct{}, 1)
	ta.Post(func() {
		stopped := ta.After(time.Millisecond, func() { t.Error("stopped timer fired") })
		stopped.Stop()
		ta.After(5*time.Millisecond, func() { fired <- struct{}{} })
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestTCPReconnectBackoff(t *testing.T) {
	hosts := map[string][]string{"pa": {"a"}, "pb": {"b"}}
	reg := obs.NewRegistry()
	ta, err := New(Config{
		Process: "pa", Listen: "127.0.0.1:0", Hosts: hosts, Metrics: reg,
		// Point pb at a dead port: every dial fails and backs off.
		Peers:     map[string]string{"pb": "127.0.0.1:1"},
		RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Start(); err != nil {
		t.Fatal(err)
	}
	defer ta.Close()

	retries := reg.Counter("tcp_conn_retries_total")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var n uint64
		done := make(chan struct{})
		ta.Post(func() { n = retries.Value(); close(done) })
		<-done
		if n >= 3 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("reconnect counter never reached 3")
}

func TestTCPConfigValidation(t *testing.T) {
	if _, err := New(Config{Process: "x", Hosts: map[string][]string{"y": {"a"}}}); err == nil {
		t.Fatal("accepted a process missing from the hosts map")
	}
	if _, err := New(Config{Process: "x", Hosts: map[string][]string{"x": {"a"}, "y": {"a"}}}); err == nil {
		t.Fatal("accepted a duplicate hosted prefix")
	}
	tr, err := New(Config{Process: "x", Hosts: map[string][]string{"x": {"a"}, "y": {"b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err == nil {
		t.Fatal("started with an unaddressed peer")
	}
}

// counterOnLoop reads a counter on the transport's loop goroutine, where
// every instrument is written.
func counterOnLoop(tr *Transport, c *obs.Counter) uint64 {
	var n uint64
	done := make(chan struct{})
	tr.Post(func() { n = c.Value(); close(done) })
	<-done
	return n
}

// TestTCPOversizeFrame: a frame above MaxFrame is refused where it is sent,
// counted, and costs nothing else — the connection and the frames behind it
// survive. A length prefix above MaxFrame arriving anyway (a peer that does
// not play by the rule) is counted on the receiving side.
func TestTCPOversizeFrame(t *testing.T) {
	const maxFrame = 4096
	hosts := map[string][]string{"pa": {"a"}, "pb": {"b"}}
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	ta, err := New(Config{Process: "pa", Listen: "127.0.0.1:0", Hosts: hosts, Metrics: regA, MaxFrame: maxFrame})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(Config{Process: "pb", Listen: "127.0.0.1:0", Hosts: hosts, Metrics: regB, MaxFrame: maxFrame})
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
	got := make(chan int, 4)
	tb.Post(func() {
		tb.AddNode("b/inbox", transport.HandlerFunc(func(_ transport.NodeID, p []byte) { got <- len(p) }))
	})
	// The largest payload that still fits, an oversize one, then a small one
	// queued behind it.
	fits := maxFrame - frameBodyLen("a", "b/inbox", nil)
	ta.Post(func() {
		ta.Send("a", "b/inbox", make([]byte, fits))
		ta.Send("a", "b/inbox", make([]byte, fits+1))
		ta.Send("a", "b/inbox", []byte("after"))
	})
	for _, want := range []int{fits, len("after")} {
		select {
		case n := <-got:
			if n != want {
				t.Fatalf("delivered %d bytes, want %d", n, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for the %d-byte frame", want)
		}
	}
	if n := counterOnLoop(ta, regA.Counter("tcp_frames_oversize_total", "dir=send")); n != 1 {
		t.Fatalf("sender counted %d oversize frames, want 1", n)
	}
	if n := counterOnLoop(ta, regA.Counter("tcp_frames_sent_total")); n != 2 {
		t.Fatalf("sender counted %d frames sent, want 2", n)
	}

	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	rx := regB.Counter("tcp_frames_oversize_total", "dir=recv")
	deadline := time.Now().Add(5 * time.Second)
	for counterOnLoop(tb, rx) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("receiver never counted the oversize length prefix")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
