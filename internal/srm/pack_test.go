package srm

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"itdos/internal/obs"
	"itdos/internal/pbft"
)

// packGolden is the pack encoding of ("a", "", "bc"): marker, count 3, then
// each payload behind its u32 length. Changing it changes what every replica
// orders.
const packGolden = "0053524d2d5041434b00" + "0003" +
	"00000001" + "61" + "00000000" + "00000002" + "6263"

func TestPackGolden(t *testing.T) {
	payloads := [][]byte{[]byte("a"), {}, []byte("bc")}
	got := encodePack(payloads)
	if hex.EncodeToString(got) != packGolden {
		t.Fatalf("pack encoding\n got %x\nwant %s", got, packGolden)
	}
	back, ok := decodePack(got)
	if !ok || fmt.Sprintf("%q", back) != fmt.Sprintf("%q", payloads) {
		t.Fatalf("decode: %q, %v", back, ok)
	}
}

// TestPackBudget: the request carrying a full pack is one every replica
// orders. It names a client and a reply address longer than any the system
// builds.
func TestPackBudget(t *testing.T) {
	ring := pbft.NewKeyring()
	id := strings.Repeat("c", 100)
	priv, err := pbft.DeriveIdentity(id, []byte("budget"), ring)
	if err != nil {
		t.Fatal(err)
	}
	full := encodePack([][]byte{make([]byte, MaxPackBytes-len(packMarker)-packHeaderLen-packEntryLen)})
	if len(full) != MaxPackBytes {
		t.Fatalf("full pack is %d bytes, want %d", len(full), MaxPackBytes)
	}
	req := &pbft.Request{ClientID: id, ClientSeq: 1 << 40, Op: full, ReplyTo: id + "/tx/" + id}
	pbft.SignMessage(pbft.NewEd25519Auth(id, priv, ring), req)
	if req.Size() > pbft.MaxRequestBytes {
		t.Fatalf("a full pack's request is %d bytes, over pbft.MaxRequestBytes %d", req.Size(), pbft.MaxRequestBytes)
	}
}

// rawOps are what a Byzantine client may order instead of an honest pack:
// each row names the messages every element must deliver for it.
func rawOps() []struct {
	name string
	op   []byte
	want []string
} {
	pack := func(payloads ...string) []byte {
		b := make([][]byte, len(payloads))
		for i, p := range payloads {
			b[i] = []byte(p)
		}
		return encodePack(b)
	}
	header := func(count uint16) []byte {
		return append(append([]byte(nil), packMarker...), byte(count>>8), byte(count))
	}
	overBound := make([]string, MaxPackPayloads+1)
	for i := range overBound {
		overBound[i] = "x"
	}
	big := strings.Repeat("o", MaxPackBytes)
	nested := pack("inner-a", "inner-b")
	lone := func(op []byte) []string { return []string{string(op)} }
	rows := []struct {
		name string
		op   []byte
		want []string
	}{
		{"count 0", header(0), nil},
		{"count 1", pack("only"), []string{"only"}},
		{"count at the bound", pack(overBound[1:]...), overBound[1:]},
		{"count over the bound", pack(overBound...), nil},
		{"count the op cannot hold", append(header(3), 0, 0, 0, 0), nil},
		{"length past the end", append(header(1), 0, 0, 0, 9, 'a'), nil},
		{"truncated length", append(header(1), 0, 0), nil},
		{"trailing octets", append(pack("a", "b"), 0), nil},
		{"nested pack", pack("outer", string(nested)), []string{"outer", string(nested)}},
		{"marker only", append([]byte(nil), packMarker...), nil},
		{"lone payload after the marker", append(append([]byte(nil), packMarker...), "not a pack"...), nil},
		{"over-budget pack", pack(big, "tail"), []string{big, "tail"}},
		{"empty op", []byte{}, nil},
	}
	for i := range rows {
		if rows[i].want == nil {
			rows[i].want = lone(rows[i].op)
		}
	}
	return rows
}

// TestPackAdversarial orders each raw op from a client that bypasses the
// sender's packing: every element delivers exactly the row's messages, in
// order, and all reach the same queue digest. A malformed pack is a lone
// payload, a well-formed one is unpacked one level, whatever its size.
func TestPackAdversarial(t *testing.T) {
	for _, tc := range rawOps() {
		t.Run(tc.name, func(t *testing.T) {
			td := newTestDomain(t, 4, 1, 128, 9)
			s, acks := td.sender(t, "client:byz")
			if _, err := s.client.Invoke(tc.op); err != nil {
				t.Fatal(err)
			}
			td.net.Run(1_000_000)
			td.sendAndWait(t, s, acks, "after")
			td.net.Run(1_000_000)
			want := fmt.Sprintf("%q", append(append([]string(nil), tc.want...), "after"))
			digest := td.dom.Elements[0].Queue().Capture().Digest()
			for i, el := range td.dom.Elements {
				if got := fmt.Sprintf("%q", td.deliv[i]); got != want {
					t.Errorf("element %d delivered %.200s, want %.200s", i, got, want)
				}
				if d := el.Queue().Capture().Digest(); d != digest {
					t.Errorf("element %d queue digest %v, element 0 %v", i, d, digest)
				}
			}
		})
	}
}

// TestPackEquivalence: payloads sent as one pack leave the same queue digest
// and the same deliveries as the same payloads sent one request each with
// nothing interleaved — and the pack really was one request.
func TestPackEquivalence(t *testing.T) {
	frag := bytes.Repeat([]byte{0xAB}, 16<<10)
	for _, tc := range []struct {
		name     string
		payloads [][]byte
		requests float64 // ordered requests the sender needs for them
	}{
		{"two fragments", [][]byte{frag, []byte("tail fragment")}, 1},
		{"small burst", [][]byte{[]byte("a"), []byte("b"), {}, []byte("d")}, 1},
		{"marker-prefixed payloads", [][]byte{append(bytes.Clone(packMarker), 0, 1), encodePack([][]byte{[]byte("x")})}, 1},
		{"lone marker-prefixed payload", [][]byte{encodePack([][]byte{[]byte("x"), []byte("y")})}, 1},
		{"over one pack", [][]byte{frag[:12<<10], frag[:12<<10], frag[:12<<10]}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(together bool) (*testDomain, *obs.Registry) {
				metrics := obs.NewRegistry()
				td := newTestDomainCfg(t, 5, DomainConfig{N: 4, F: 1, QueueCapacity: 64, CheckpointInterval: 4, Metrics: metrics})
				s, acks := td.sender(t, "client:eq")
				if !together {
					for _, p := range tc.payloads {
						td.sendAndWait(t, s, acks, string(p))
					}
					return td, metrics
				}
				if n, err := s.SendAll(tc.payloads, nil); err != nil || n != uint64(len(tc.payloads)) {
					t.Fatalf("SendAll: %d, %v", n, err)
				}
				td.run(t, s, len(tc.payloads))
				return td, metrics
			}
			alone, _ := run(false)
			packed, metrics := run(true)
			alone.net.Run(1_000_000)
			packed.net.Run(1_000_000)
			for i := range packed.dom.Elements {
				a, p := alone.dom.Elements[i].Queue(), packed.dom.Elements[i].Queue()
				if a.Capture().Digest() != p.Capture().Digest() {
					t.Errorf("element %d: queue digest differs", i)
				}
				if fmt.Sprintf("%q", alone.deliv[i]) != fmt.Sprintf("%q", packed.deliv[i]) {
					t.Errorf("element %d: deliveries differ", i)
				}
			}
			if got := metrics.Counter("pbft_batched_requests_total", "group=dom").Value() / 4; float64(got) != tc.requests {
				t.Errorf("ordered %v requests, want %v", got, tc.requests)
			}
			h := metrics.Histogram("srm_request_payloads", nil, "group=dom")
			if got, want := h.Sum(), float64(4*len(tc.payloads)); got != want {
				t.Errorf("srm_request_payloads sum %v, want %v (four elements)", got, want)
			}
		})
	}
}

// TestSenderPacksWhatQueued: what queues behind the request in flight goes
// as packs when it is acknowledged, each within MaxPackBytes and
// MaxPackPayloads, one request in flight throughout, OnAck once per payload
// in order.
func TestSenderPacksWhatQueued(t *testing.T) {
	metrics := obs.NewRegistry()
	td := newTestDomainCfg(t, 6, DomainConfig{N: 4, F: 1, QueueCapacity: 1024, CheckpointInterval: 4, Metrics: metrics})
	s, _ := td.sender(t, "client:burst")
	var acked []uint64
	s.OnAck = func(n uint64) { acked = append(acked, n) }
	const small, large = 3 * MaxPackPayloads / 2, 3
	var want []string
	for i := 0; i < small; i++ {
		want = append(want, fmt.Sprintf("s%d", i))
	}
	for i := 0; i < large; i++ {
		want = append(want, strings.Repeat(fmt.Sprint(i), MaxPackBytes/2))
	}
	for i, p := range want {
		if n, err := s.Send([]byte(p)); err != nil || n != uint64(i+1) {
			t.Fatalf("send %d: %d, %v", i, n, err)
		}
	}
	td.run(t, s, len(want))
	td.net.Run(1_000_000)
	if fmt.Sprintf("%q", td.deliv[0]) != fmt.Sprintf("%q", want) {
		t.Fatalf("delivered out of order")
	}
	for i, n := range acked {
		if n != uint64(i+1) {
			t.Fatalf("OnAck order %v", acked)
		}
	}
	// The first payload alone, MaxPackPayloads, the rest of the small ones
	// with the first large one, then one large one each.
	if got := metrics.Counter("pbft_batched_requests_total", "group=dom").Value() / 4; got != 5 {
		t.Errorf("%d requests ordered, want 5", got)
	}
}

// FuzzSRMPack feeds arbitrary ops to the pack decoder Execute runs on every
// ordered request. decodePack must never panic; what it accepts is exactly
// one encoding (re-encoding gives the op back) within the count bound; and a
// sender's encoding of any lone payload decodes back to that payload.
func FuzzSRMPack(f *testing.F) {
	for _, seed := range packSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, op []byte) {
		payloads, ok := decodePack(op)
		if ok {
			if len(payloads) < 1 || len(payloads) > MaxPackPayloads {
				t.Fatalf("accepted a pack of %d payloads", len(payloads))
			}
			if !bytes.Equal(encodePack(payloads), op) {
				t.Fatal("an accepted pack re-encodes differently")
			}
		}
		sent := packOp([][]byte{op})
		if back, ok := decodePack(sent); ok {
			if len(back) != 1 || !bytes.Equal(back[0], op) {
				t.Fatal("a lone payload's op unpacks to something else")
			}
		} else if !bytes.Equal(sent, op) {
			t.Fatal("a lone payload's op is neither the payload nor a pack of it")
		}
		q := NewQueue(2*MaxPackPayloads, nil)
		q.Execute("client:f", op)
		want := uint64(1)
		if ok {
			want = uint64(len(payloads))
		}
		if q.NextSeq() != want+1 {
			t.Fatalf("executed %d messages, want %d", q.NextSeq()-1, want)
		}
	})
}

// packSeeds are FuzzSRMPack's starting points: the adversarial rows, honest
// packs and the golden vector.
func packSeeds() [][]byte {
	golden, _ := hex.DecodeString(packGolden)
	seeds := [][]byte{golden, encodePack([][]byte{[]byte("solo")}), []byte("plain payload")}
	for _, row := range rawOps() {
		if len(row.op) <= 4<<10 {
			seeds = append(seeds, row.op)
		}
	}
	return seeds
}
