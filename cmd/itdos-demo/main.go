// Command itdos-demo drives a configurable ITDOS deployment from the
// command line: it builds a replicated counter service, runs a client
// workload against it, optionally compromises replicas mid-run, and prints
// a run report (results, traffic, fault events, expulsions).
//
// Examples:
//
//	itdos-demo                              # 4 replicas, f=1, 10 calls
//	itdos-demo -n 7 -f 2 -calls 50          # larger domain
//	itdos-demo -byzantine 2 -after 3        # compromise replica 2 after call 3
//	itdos-demo -clients 3 -seed 9           # concurrent clients
//	itdos-demo -itc -metrics                # automated intrusion response
//	itdos-demo -byzantine 2 -itc -flight    # forensic flight-recorder timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"itdos"
	"itdos/internal/fault"
)

const counterIface = "IDL:demo/Counter:1.0"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "itdos-demo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("itdos-demo", flag.ContinueOnError)
	n := fs.Int("n", 4, "replicas in the service domain (>= 3f+1)")
	f := fs.Int("f", 1, "failure bound of the service domain")
	gmN := fs.Int("gm-n", 4, "Group Manager replicas")
	gmF := fs.Int("gm-f", 1, "Group Manager failure bound")
	clients := fs.Int("clients", 1, "concurrent singleton clients")
	calls := fs.Int("calls", 10, "calls per client")
	byz := fs.Int("byzantine", -1, "replica index to compromise (-1: none)")
	after := fs.Int("after", 2, "compromise after this many calls of client 0")
	seed := fs.Int64("seed", 1, "simulation seed (same seed => identical run)")
	epsilon := fs.Float64("epsilon", 0, "inexact voting tolerance (0 = exact)")
	itcOn := fs.Bool("itc", false, "enable the intrusion-tolerance controller (feedback rekey + proactive recovery)")
	trace := fs.Bool("trace", false, "print the span tree of client 0's first invocation")
	traceJSON := fs.Bool("trace-json", false, "print the full span forest as itdos-trace/1 JSON")
	metrics := fs.Bool("metrics", false, "print the metrics registry after the run")
	flightOn := fs.Bool("flight", false, "record protocol events and print the flight-recorder timeline after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *byz >= *n {
		return fmt.Errorf("-byzantine %d out of range for n=%d", *byz, *n)
	}

	reg := itdos.NewRegistry()
	reg.Register(itdos.NewInterface(counterIface).
		Op("inc",
			[]itdos.Param{{Name: "by", Type: itdos.Long}},
			[]itdos.Param{{Name: "value", Type: itdos.LongLong}}))

	profiles := make([]itdos.Profile, *n)
	for i := range profiles {
		if i%2 == 0 {
			profiles[i] = itdos.SolarisLike
		} else {
			profiles[i] = itdos.LinuxLike
		}
	}
	clientSpecs := make([]itdos.ClientSpec, *clients)
	for i := range clientSpecs {
		clientSpecs[i] = itdos.ClientSpec{Name: fmt.Sprintf("client-%d", i)}
	}
	var mreg *itdos.Metrics
	if *metrics || *trace || *traceJSON || *itcOn {
		mreg = itdos.NewMetrics()
	}
	var frec *itdos.FlightRecorder
	if *flightOn {
		frec = itdos.NewFlightRecorder(0)
	}
	var itcCfg *itdos.ITCConfig
	var checkpoint uint64
	if *itcOn {
		// A demo-paced controller: rekey feedback and recovery rotation both
		// fast enough to fire within a short run's simulated time. Proactive
		// recovery completes on checkpoint-driven state transfer, so the
		// checkpoint interval drops to match the modest call volume.
		itcCfg = &itdos.ITCConfig{
			BaseRekeyInterval: 2 * time.Second,
			RecoveryInterval:  time.Second,
		}
		checkpoint = 4
	}
	sys, err := itdos.NewSystem(itdos.Config{
		Seed:               *seed,
		Latency:            itdos.UniformLatency(time.Millisecond, 3*time.Millisecond),
		Registry:           reg,
		Metrics:            mreg,
		Flight:             frec,
		GM:                 itdos.GroupSpec{N: *gmN, F: *gmF},
		Epsilon:            *epsilon,
		ITC:                itcCfg,
		CheckpointInterval: checkpoint,
		Domains: []itdos.DomainSpec{{
			Name: "counter", N: *n, F: *f,
			Profiles: profiles,
			Setup: func(member int, a *itdos.Adapter) error {
				var value int64
				return a.Register("ctr", counterIface, itdos.ServantFunc(
					func(ctx *itdos.CallContext, op string, args []itdos.Value) ([]itdos.Value, error) {
						value += int64(args[0].(int32))
						return []itdos.Value{value}, nil
					}))
			},
		}},
		Clients: clientSpecs,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	var tracer *itdos.Tracer
	if *trace || *traceJSON {
		tracer = sys.EnableTracing()
	}

	ref := itdos.ObjectRef{Domain: "counter", ObjectKey: "ctr", Interface: counterIface}
	fmt.Printf("deployment: counter domain n=%d f=%d, GM n=%d f=%d, %d client(s), seed %d\n",
		*n, *f, *gmN, *gmF, *clients, *seed)
	fmt.Println("--------------------------------------------------------------------")

	for i := 0; i < *calls; i++ {
		for c := 0; c < *clients; c++ {
			cli := sys.Client(fmt.Sprintf("client-%d", c))
			if c == 0 && *byz >= 0 && i == *after {
				if err := sys.Domain("counter").Elements[*byz].Adapter.Register(
					"ctr", counterIface, fault.LyingServant(itdos.Value(int64(-777)))); err != nil {
					return err
				}
				fmt.Printf("*** compromising counter/r%d before call %d ***\n", *byz, i)
			}
			before := sys.Net.Stats()
			res, err := cli.CallAndRun(ref, "inc", []itdos.Value{int32(1)}, 50_000_000)
			msgs := sys.Net.Stats().MessagesSent - before.MessagesSent
			if err != nil {
				fmt.Printf("client-%d call %2d: ERROR %v\n", c, i, err)
				continue
			}
			fmt.Printf("client-%d call %2d: counter=%-4v (%3d msgs)\n", c, i, res[0], msgs)
		}
	}

	// Let fault handling settle, then report. The controller's evaluation
	// tick (and a recovering replica's re-solicitation timer) re-arm
	// forever, so with -itc the settle window is bounded by virtual time
	// rather than by draining the event queue.
	if *itcOn {
		sys.Net.RunFor(3 * time.Second)
		sys.ITC().Stop()
	} else {
		sys.Net.Run(3_000_000)
	}
	fmt.Println("--------------------------------------------------------------------")
	if tracer != nil && *trace {
		// Client 0's first invocation: a cold call, so the tree shows the
		// Fig. 3 connection-establishment steps inside the Fig. 2 stack.
		if root := tracer.FindRoot("invoke"); root != nil {
			fmt.Println("trace of client-0's first invocation:")
			if err := root.Dump(os.Stdout); err != nil {
				return err
			}
			fmt.Println("--------------------------------------------------------------------")
		}
	}
	if tracer != nil && *traceJSON {
		// The whole span forest as schema-pinned JSON (itdos-trace/1): the
		// machine-readable sibling of -trace, for trace viewers and CI diffs.
		if err := tracer.WriteJSON(os.Stdout); err != nil {
			return err
		}
		fmt.Println("--------------------------------------------------------------------")
	}
	if frec != nil {
		// The whole run as per-replica causal timelines: the forensic view
		// the controller snapshots on its own at threshold crossings.
		if err := frec.Snapshot("itdos-demo run report").Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println("--------------------------------------------------------------------")
	}
	if *metrics && mreg != nil {
		fmt.Println("metrics:")
		if err := mreg.WriteProm(os.Stdout); err != nil {
			return err
		}
		fmt.Println("--------------------------------------------------------------------")
	}
	st := sys.Net.Stats()
	fmt.Printf("traffic: %d msgs, %d bytes; simulated time %v\n",
		st.MessagesSent, st.BytesSent, sys.Net.Now())
	if *itcOn {
		fmt.Printf("itc responses: %d rekeys, %d accusations, %d recoveries started\n",
			mreg.Counter("itc_rekeys_total").Value(),
			mreg.Counter("itc_expulsions_total").Value(),
			mreg.Counter("itc_recoveries_total").Value())
	}
	for c := 0; c < *clients; c++ {
		cli := sys.Client(fmt.Sprintf("client-%d", c))
		if len(cli.FaultEvents) > 0 {
			fmt.Printf("client-%d filed change_requests: %+v\n", c, cli.FaultEvents)
		}
	}
	for j, mgr := range sys.GMManagers {
		if len(mgr.Expulsions) > 0 {
			fmt.Printf("GM element %d expulsions: %+v (rejected proofs: %d)\n",
				j, mgr.Expulsions, mgr.RejectedProofs)
			break
		}
	}
	return nil
}
