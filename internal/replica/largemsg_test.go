package replica

import (
	"strings"
	"testing"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/orb"
)

const blobIface = "IDL:test/Blob:1.0"

// assertFragmented fails unless some sealed message was split: the
// counter takes the frames of fragmented messages only, so at least 2
// means at least one message travelled as 2 or more fragments.
func assertFragmented(t *testing.T, reg *obs.Registry) {
	t.Helper()
	if got := reg.Counter("smiop_fragments_total", "dir=out").Value(); got < 2 {
		t.Fatalf("%d fragments sent: no message was split", got)
	}
}

// TestLargeObjectTransfer exercises SMIOP fragmentation end to end
// (paper §4 future work): a reply far larger than the fragment size
// travels fragmented, sealed and signed, through voting, and reassembles
// identically at the client — with confidentiality, authentication and
// integrity intact.
func TestLargeObjectTransfer(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(blobIface).
		Op("fetch",
			[]idl.Param{{Name: "size", Type: cdr.Long}},
			[]idl.Param{{Name: "blob", Type: cdr.String}}).
		Op("store",
			[]idl.Param{{Name: "blob", Type: cdr.String}},
			[]idl.Param{{Name: "size", Type: cdr.Long}}))
	sys, err := NewSystem(SystemConfig{
		Seed:     17,
		Latency:  netsim.UniformLatency(time.Millisecond, 2*time.Millisecond),
		Registry: reg,
		Metrics:  metrics,
		Domains: []DomainSpec{{
			Name: "blob", N: 4, F: 1,
			Profiles: []Profile{SolarisLike, LinuxLike, SolarisLike, LinuxLike},
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("blob", blobIface, orb.ServantFunc(
					func(_ *orb.CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
						switch op {
						case "fetch":
							n := int(args[0].(int32))
							return []cdr.Value{strings.Repeat("payload-", n/8+1)[:n]}, nil
						case "store":
							return []cdr.Value{int32(len(args[0].(string)))}, nil
						}
						return nil, orb.ErrBadOperation
					}))
			},
		}},
		Clients: []ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ref := orb.ObjectRef{Domain: "blob", ObjectKey: "blob", Interface: blobIface}
	alice := sys.Client("alice")

	// Large reply: 300 KiB through 16 KiB fragments.
	const size = 300 << 10
	res, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(size)}, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	blob := res[0].(string)
	if len(blob) != size {
		t.Fatalf("fetched %d bytes, want %d", len(blob), size)
	}
	if !strings.HasPrefix(blob, "payload-") {
		t.Fatal("blob content corrupted")
	}
	assertFragmented(t, metrics)

	// Large request: the client's request fragments too.
	res, err = alice.CallAndRun(ref, "store", []cdr.Value{blob}, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int32); int(got) != size {
		t.Fatalf("stored %d bytes, want %d", got, size)
	}

	// Confidentiality: the plaintext never appeared on the wire.
	leaked := false
	sys.Net.AddFilter(func(_, _ netsim.NodeID, payload []byte) ([]byte, bool) {
		if strings.Contains(string(payload), "payload-payload-") {
			leaked = true
		}
		return nil, false
	})
	if _, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(64 << 10)}, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if leaked {
		t.Fatal("large-object plaintext leaked on the wire")
	}
}

// TestLargeObjectWithByzantineReplica: a lying replica's fragmented reply
// must still be outvoted.
func TestLargeObjectWithByzantineReplica(t *testing.T) {
	metrics := obs.NewRegistry()
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(blobIface).
		Op("fetch",
			[]idl.Param{{Name: "size", Type: cdr.Long}},
			[]idl.Param{{Name: "blob", Type: cdr.String}}))
	sys, err := NewSystem(SystemConfig{
		Seed:     18,
		Latency:  netsim.UniformLatency(time.Millisecond, 2*time.Millisecond),
		Registry: reg,
		Metrics:  metrics,
		Domains: []DomainSpec{{
			Name: "blob", N: 4, F: 1,
			Setup: func(member int, a *orb.Adapter) error {
				return a.Register("blob", blobIface, orb.ServantFunc(
					func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
						n := int(args[0].(int32))
						return []cdr.Value{strings.Repeat("x", n)}, nil
					}))
			},
		}},
		Clients: []ClientSpec{{Name: "alice"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ref := orb.ObjectRef{Domain: "blob", ObjectKey: "blob", Interface: blobIface}
	alice := sys.Client("alice")
	if _, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(1024)}, 50_000_000); err != nil {
		t.Fatal(err)
	}
	// Replica 1 now returns corrupted large blobs.
	evil := orb.ServantFunc(func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
		n := int(args[0].(int32))
		return []cdr.Value{strings.Repeat("EVIL", n/4+1)[:n]}, nil
	})
	if err := sys.Domain("blob").Elements[1].Adapter.Register("blob", blobIface, evil); err != nil {
		t.Fatal(err)
	}
	res, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(40 << 10)}, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res[0].(string), "EVIL") {
		t.Fatal("Byzantine large object accepted")
	}
	assertFragmented(t, metrics)
}
