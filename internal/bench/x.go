package bench

import (
	"fmt"
	"strings"
	"time"

	"itdos/internal/cdr"
	"itdos/internal/idl"
	"itdos/internal/netsim"
	"itdos/internal/orb"
	"itdos/internal/replica"
	"itdos/internal/smiop"
)

// X1 measures the large-object extension (paper §4 future work): SMIOP
// fragmentation moves multi-hundred-KiB objects through ordering, sealing,
// signing and voting, with cost growing linearly in object size while the
// per-message signature count stays constant (one signature per logical
// message, not per fragment).
func X1() (*Table, error) {
	const blobIface = "IDL:bench/Blob:1.0"
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface(blobIface).
		Op("fetch",
			[]idl.Param{{Name: "size", Type: cdr.Long}},
			[]idl.Param{{Name: "blob", Type: cdr.String}}))
	t := &Table{
		ID:    "X1",
		Title: "Large-object transfer through SMIOP fragmentation (extension)",
		Source: "paper §4 future work (\"moving larger messages through the system " +
			"with confidentiality, authentication, and integrity\")",
		Headers: []string{"object size", "fragments/reply", "msgs/call", "bytes/call",
			"sim latency", "wire expansion"},
	}
	for _, size := range []int{4 << 10, 64 << 10, 256 << 10, 1 << 20} {
		sys, err := replica.NewSystem(replica.SystemConfig{
			Seed:     int64(70 + size>>12),
			Latency:  netsim.UniformLatency(time.Millisecond, 2*time.Millisecond),
			Registry: reg,
			Domains: []replica.DomainSpec{{
				Name: "blob", N: 4, F: 1,
				Setup: func(member int, a *orb.Adapter) error {
					return a.Register("blob", blobIface, orb.ServantFunc(
						func(_ *orb.CallContext, _ string, args []cdr.Value) ([]cdr.Value, error) {
							n := int(args[0].(int32))
							return []cdr.Value{strings.Repeat("b", n)}, nil
						}))
				},
			}},
			Clients: []replica.ClientSpec{{Name: "alice"}},
		})
		if err != nil {
			return nil, err
		}
		ref := orb.ObjectRef{Domain: "blob", ObjectKey: "blob", Interface: blobIface}
		alice := sys.Client("alice")
		// Warm the connection.
		if _, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(16)}, 50_000_000); err != nil {
			return nil, err
		}
		d := snap(sys.Net)
		res, err := alice.CallAndRun(ref, "fetch", []cdr.Value{int32(size)}, 100_000_000)
		if err != nil {
			return nil, err
		}
		if len(res[0].(string)) != size {
			return nil, fmt.Errorf("X1: size mismatch")
		}
		frags := (size + smiop.DefaultFragmentSize - 1) / smiop.DefaultFragmentSize
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d KiB", size>>10),
			fmt.Sprintf("%d", frags),
			fmt.Sprintf("%d", d.msgs()),
			fmt.Sprintf("%d", d.bytes()),
			ms(d.elapsed()),
			fmt.Sprintf("%.1fx", float64(d.bytes())/float64(size)),
		})
		_ = sys.Close()
	}
	t.Note = "wire expansion reflects 4 replicas each returning the full object (plus " +
		"ordering overhead) — active replication's inherent bandwidth cost. Fragments " +
		"are individually sealed but the message is signed once, so signing cost does " +
		"not grow with object size."
	return t, nil
}
