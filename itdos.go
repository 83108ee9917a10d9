// Package itdos is a Go reproduction of the Intrusion Tolerant Distributed
// Object Systems (ITDOS) architecture — "Developing a Heterogeneous
// Intrusion Tolerant CORBA System" (Sames, Matt, Niebuhr, Tally, Whitmore,
// Bakken; DSN 2002).
//
// ITDOS is intrusion-tolerant CORBA middleware: a service is actively
// replicated over 3f+1 heterogeneous server processes whose requests and
// replies are totally ordered by a Castro–Liskov (PBFT) multicast, voted
// on as unmarshalled values so byte-level platform differences don't
// matter, and protected by symmetric communication keys generated with
// threshold cryptography inside a replicated Group Manager. Up to f
// arbitrarily faulty (Byzantine) replicas are masked, detected and
// expelled.
//
// # Quick start
//
// Define interfaces, describe the deployment, and invoke:
//
//	reg := itdos.NewRegistry()
//	reg.Register(itdos.NewInterface("IDL:demo/Echo:1.0").
//		Op("echo",
//			[]itdos.Param{{Name: "in", Type: itdos.String}},
//			[]itdos.Param{{Name: "out", Type: itdos.String}}))
//
//	sys, err := itdos.NewSystem(itdos.Config{
//		Registry: reg,
//		Domains: []itdos.DomainSpec{{
//			Name: "echo", N: 4, F: 1,
//			Setup: func(member int, a *itdos.Adapter) error {
//				return a.Register("echo-1", "IDL:demo/Echo:1.0", itdos.ServantFunc(
//					func(ctx *itdos.CallContext, op string, args []itdos.Value) ([]itdos.Value, error) {
//						return []itdos.Value{args[0]}, nil
//					}))
//			},
//		}},
//		Clients: []itdos.ClientSpec{{Name: "alice"}},
//	})
//	// ...
//	ref := itdos.ObjectRef{Domain: "echo", ObjectKey: "echo-1", Interface: "IDL:demo/Echo:1.0"}
//	out, err := sys.Client("alice").CallAndRun(ref, "echo", []itdos.Value{"hi"}, 5_000_000)
//
// The deployment runs on a deterministic simulated network: drive it with
// System.RunUntil (or the CallAndRun convenience) and inject faults,
// partitions and latency through the exposed netsim handle.
package itdos

import (
	"time"

	"itdos/internal/cdr"
	"itdos/internal/idl"
	"itdos/internal/itc"
	"itdos/internal/netsim"
	"itdos/internal/obs"
	"itdos/internal/obs/flight"
	"itdos/internal/orb"
	"itdos/internal/replica"
	"itdos/internal/vote"
)

// --- deployment ---

// Config describes a full ITDOS deployment (domains, clients, the Group
// Manager, crypto configuration and voting policy).
type Config = replica.SystemConfig

// System is a running deployment on the simulated network.
type System = replica.System

// DomainSpec describes one replicated server domain (N ≥ 3F+1).
type DomainSpec = replica.DomainSpec

// ClientSpec describes a singleton client process.
type ClientSpec = replica.ClientSpec

// GroupSpec sizes the Group Manager domain.
type GroupSpec = replica.GroupSpec

// ITCConfig tunes the intrusion-tolerance controller; set Config.ITC to a
// non-nil value to enable it (see internal/itc for the feedback loop:
// suspicion decay, feedback-scheduled rekey, evidence-gated expulsion and
// proactive recovery rotation).
type ITCConfig = itc.Config

// Client is a singleton client runtime.
type Client = replica.Client

// Element is one replication domain element.
type Element = replica.Element

// Profile models an element's platform (byte order, float behaviour,
// OS/language labels) — the heterogeneity dimension of the paper.
type Profile = replica.Profile

// Platform profiles modelled after the paper's targets.
var (
	DefaultProfile = replica.DefaultProfile
	SolarisLike    = replica.SolarisLike
	LinuxLike      = replica.LinuxLike
)

// NewSystem builds and wires a deployment.
func NewSystem(cfg Config) (*System, error) { return replica.NewSystem(cfg) }

// --- object model ---

// ObjectRef names a CORBA object inside a replication domain.
type ObjectRef = orb.ObjectRef

// Servant is an application object implementation.
type Servant = orb.Servant

// ServantFunc adapts a function to Servant.
type ServantFunc = orb.ServantFunc

// CallContext carries per-invocation information (including the Caller for
// nested invocations).
type CallContext = orb.CallContext

// Adapter is the object adapter servants register with.
type Adapter = orb.Adapter

// UserException is a declared application-level exception.
type UserException = orb.UserException

// --- interface definitions ---

// Registry is the runtime interface repository (the marshalling engine).
type Registry = idl.Registry

// Interface is a named collection of operations.
type Interface = idl.Interface

// Param is a named, typed operation parameter or result.
type Param = idl.Param

// NewRegistry returns an empty interface registry.
func NewRegistry() *Registry { return idl.NewRegistry() }

// NewInterface creates an interface definition.
func NewInterface(name string) *Interface { return idl.NewInterface(name) }

// --- values and types ---

// Value is an unmarshalled CORBA value (see cdr.Value for the mapping).
type Value = cdr.Value

// TypeCode describes a CORBA type at runtime.
type TypeCode = cdr.TypeCode

// Member is one field of a struct TypeCode.
type Member = cdr.Member

// Primitive TypeCodes.
var (
	Boolean   = cdr.Boolean
	Octet     = cdr.Octet
	Short     = cdr.Short
	UShort    = cdr.UShort
	Long      = cdr.Long
	ULong     = cdr.ULong
	LongLong  = cdr.LongLong
	ULongLong = cdr.ULongLong
	Float     = cdr.Float
	Double    = cdr.Double
	String    = cdr.String
)

// SequenceOf returns an unbounded sequence TypeCode.
func SequenceOf(elem *TypeCode) *TypeCode { return cdr.SequenceOf(elem) }

// ArrayOf returns a fixed-length array TypeCode.
func ArrayOf(elem *TypeCode, length int) *TypeCode { return cdr.ArrayOf(elem, length) }

// StructOf returns a struct TypeCode.
func StructOf(name string, members ...Member) *TypeCode { return cdr.StructOf(name, members...) }

// EnumOf returns an enum TypeCode.
func EnumOf(name string, labels ...string) *TypeCode { return cdr.EnumOf(name, labels...) }

// Byte orders for Profile definitions.
const (
	BigEndian    = cdr.BigEndian
	LittleEndian = cdr.LittleEndian
)

// --- voting policy ---

// VoteMode selects the voter decision policy.
type VoteMode = vote.Mode

// Voting policies (the paper's choice is EagerFPlus1).
const (
	EagerFPlus1 = vote.EagerFPlus1
	AfterQuorum = vote.AfterQuorum
	WaitAll     = vote.WaitAll
)

// --- observability ---

// Metrics is the virtual-time metrics registry (counters, gauges,
// fixed-bucket histograms). Pass one in Config.Metrics to observe a
// deployment; read it back with WriteProm (Prometheus text format).
type Metrics = obs.Registry

// Tracer records per-invocation spans over the simulator's virtual clock.
// Obtain one with System.EnableTracing.
type Tracer = obs.Tracer

// Span is one traced operation in an invocation's span tree.
type Span = obs.Span

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// FlightRecorder is the per-replica ring buffer of protocol events.
// Pass one in Config.Flight to capture forensic timelines; the nil
// default records nothing and changes no behaviour.
type FlightRecorder = flight.Recorder

// FlightDump is one schema-pinned snapshot of a flight recorder.
type FlightDump = flight.Dump

// NewFlightRecorder returns a flight recorder for Config.Flight.
// capacity <= 0 selects the default per-replica ring size; NewSystem
// binds the simulator's virtual clock when it builds the network.
func NewFlightRecorder(capacity int) *FlightRecorder { return flight.New(capacity) }

// --- simulation helpers ---

// LatencyModel shapes simulated one-way delays.
type LatencyModel = netsim.LatencyModel

// ConstantLatency returns a fixed-delay model.
func ConstantLatency(d time.Duration) LatencyModel { return netsim.ConstantLatency(d) }

// UniformLatency returns a uniformly distributed delay model.
func UniformLatency(lo, hi time.Duration) LatencyModel { return netsim.UniformLatency(lo, hi) }
