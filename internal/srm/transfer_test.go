package srm

import (
	"fmt"
	"testing"
	"time"

	"itdos/internal/obs"
	"itdos/internal/pbft"
	"itdos/internal/transport"
	"itdos/internal/transport/tcp"
)

// The lagging-replica scenario on both transports: element 3 hears nothing
// while nine messages are ordered (checkpoints at 4 and 8), then hears
// everything while five more are (checkpoint 12) and must catch up by state
// transfer. On the simulator it always can. Over TCP the StateData is one
// frame: below MaxFrame the element catches up exactly as its twin does;
// above it the frame is refused where it would be sent, counted, and the
// connection keeps carrying everything else.

var lagSeed = []byte("lag-scenario-seed")

const (
	lagMaxFrame = 32 << 10
	lagSender   = "client:a"
)

func lagConfig(reg *obs.Registry, viewTimeout time.Duration) DomainConfig {
	return DomainConfig{
		Name: "dom", N: 4, F: 1, QueueCapacity: 64, CheckpointInterval: 4,
		ViewTimeout: viewTimeout, Ring: pbft.NewKeyring(), KeySeed: lagSeed, Metrics: reg,
	}
}

// lagSenderFor builds the scenario's one sender on d, keyed from the seed so
// every process of a TCP deployment knows its identity.
func lagSenderFor(t *testing.T, d *Domain) *Sender {
	t.Helper()
	s, err := NewSender(d, lagSender, "sender/"+lagSender, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLaggingElementCatchesUpOnNetsim(t *testing.T) {
	for _, payload := range []int{512, 4 << 10} {
		td := newTestDomainCfg(t, 36, lagConfig(nil, 0))
		s := lagSenderFor(t, td.dom)
		acks := new(int)
		s.OnAck = func(uint64) { *acks++ }
		td.isolate(3, lagSender)
		for i := 0; i < 9; i++ {
			td.sendAndWait(t, s, acks, string(make([]byte, payload)))
		}
		td.net.Heal()
		for i := 9; i < 14; i++ {
			td.sendAndWait(t, s, acks, string(make([]byte, payload)))
		}
		td.net.RunFor(50 * time.Millisecond)
		if got := td.dom.Elements[3].Replica.LastExecuted(); got < 12 {
			t.Errorf("%d-byte messages: lagging element lastExec = %d, want >= 12", payload, got)
		}
		if td.desync[3] || len(td.deliv[3]) < 12 {
			t.Errorf("%d-byte messages: element 3 delivered %d, desync %v", payload, len(td.deliv[3]), td.desync[3])
		}
	}
}

// gate is a transport whose registered handlers hear nothing while shut.
// The flag is read and written on the transport's loop only.
type gate struct {
	transport.Transport
	shut bool
}

func (g *gate) AddNode(id transport.NodeID, h transport.Handler) {
	g.Transport.AddNode(id, transport.HandlerFunc(func(from transport.NodeID, payload []byte) {
		if !g.shut {
			h.Receive(from, payload)
		}
	}))
}

// lagProc is one process of the TCP deployment: its transport, registry and
// its build of the domain (of which only the hosted element is live).
type lagProc struct {
	tr  *tcp.Transport
	reg *obs.Registry
	dom *Domain
}

// on runs fn on p's loop goroutine and waits for it.
func (p *lagProc) on(fn func()) {
	done := make(chan struct{})
	p.tr.Post(func() { fn(); close(done) })
	<-done
}

func (p *lagProc) counter(name string, labels ...string) (n uint64) {
	p.on(func() { n = p.reg.Counter(name, labels...).Value() })
	return n
}

func TestLaggingElementOverTCP(t *testing.T) {
	for _, tc := range []struct {
		payload  int
		oversize bool
	}{{512, false}, {4 << 10, true}} {
		t.Run(fmt.Sprintf("%dB", tc.payload), func(t *testing.T) {
			hosts := map[string][]string{"pc": {"sender"}}
			for i := 0; i < 4; i++ {
				hosts[fmt.Sprintf("p%d", i)] = []string{fmt.Sprintf("dom/r%d", i)}
			}
			procs := make(map[string]*lagProc)
			addrs := make(map[string]string)
			lagging := &gate{shut: true}
			var sender *Sender
			acked := make(chan struct{}, 1)
			for name := range hosts {
				p := &lagProc{reg: obs.NewRegistry()}
				tr, err := tcp.New(tcp.Config{
					Process: name, Listen: "127.0.0.1:0", Hosts: hosts,
					Metrics: p.reg, MaxFrame: lagMaxFrame,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(tr.Close)
				p.tr = tr
				var net transport.Transport = tr
				if name == "p3" {
					lagging.Transport = tr
					net = lagging
				}
				// A view timeout no busy test machine reaches: the scenario
				// has no faulty primary.
				if p.dom, err = NewDomain(net, lagConfig(p.reg, time.Minute)); err != nil {
					t.Fatal(err)
				}
				s := lagSenderFor(t, p.dom)
				if name == "pc" {
					sender = s
					s.OnAck = func(uint64) { acked <- struct{}{} }
				}
				procs[name], addrs[name] = p, tr.Addr()
			}
			for _, p := range procs {
				p.tr.SetPeers(addrs)
				if err := p.tr.Start(); err != nil {
					t.Fatal(err)
				}
			}
			send := func() {
				t.Helper()
				procs["pc"].on(func() {
					if _, err := sender.Send(make([]byte, tc.payload)); err != nil {
						t.Error(err)
					}
				})
				select {
				case <-acked:
				case <-time.After(20 * time.Second):
					t.Fatal("send not acknowledged")
				}
			}
			lastExec := func(i int) (n uint64) {
				p := procs[fmt.Sprintf("p%d", i)]
				p.on(func() { n = p.dom.Elements[i].Replica.LastExecuted() })
				return n
			}
			oversize := func() (n uint64) {
				for i := 0; i < 3; i++ {
					n += procs[fmt.Sprintf("p%d", i)].counter("tcp_frames_oversize_total", "dir=send")
				}
				return n
			}
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}

			for i := 0; i < 9; i++ {
				send()
			}
			if got := lastExec(3); got != 0 {
				t.Fatalf("gated element executed to %d", got)
			}
			procs["p3"].on(func() { lagging.shut = false })
			for i := 9; i < 14; i++ {
				send()
			}
			if !tc.oversize {
				waitFor("the lagging element to catch up", func() bool { return lastExec(3) >= 12 })
				if n := oversize(); n != 0 {
					t.Fatalf("%d frames refused as oversize below the limit", n)
				}
				return
			}
			waitFor("an oversize StateData to be refused", func() bool { return oversize() > 0 })
			// Refused, not fatal: the links still carry the protocol, to the
			// lagging element too, and the next checkpoint asks again.
			heard := procs["p3"].counter("tcp_frames_recv_total")
			refused := oversize()
			for i := 14; i < 18; i++ {
				send()
			}
			waitFor("the next checkpoint's StateData to be refused too", func() bool { return oversize() > refused })
			if got := procs["p3"].counter("tcp_frames_recv_total"); got <= heard {
				t.Fatal("the lagging element stopped hearing its peers after the refusal")
			}
			if got := lastExec(3); got != 0 {
				t.Fatalf("lagging element executed to %d without the state", got)
			}
			for i := 0; i < 4; i++ {
				if n := procs[fmt.Sprintf("p%d", i)].counter("tcp_frames_oversize_total", "dir=recv"); n != 0 {
					t.Errorf("p%d closed a connection on an oversize frame %d times", i, n)
				}
			}
		})
	}
}
