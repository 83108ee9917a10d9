// Package orb is a minimal CORBA-style Object Request Broker: object
// references, servants, an object adapter, and a pluggable protocol
// framework in the spirit of TAO's (paper §3.3, [27]).
//
// ITDOS integrates with the ORB exactly where TAO's pluggable protocols
// would: the SMIOP transport (internal/replica) implements Protocol, so
// application code sees ordinary synchronous invocations while requests
// travel through voting, encryption and BFT multicast underneath.
package orb

import (
	"errors"
	"fmt"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/idl"
	"itdos/internal/obs"
)

// ObjectRef names a CORBA object: the replication domain hosting it, the
// object key within the server process, and the interface it implements.
// ITDOS object references address a whole replication domain — replication
// granularity is the server process, not the object (paper §3.4).
type ObjectRef struct {
	Domain    string
	ObjectKey string
	Interface string
}

// String renders the reference IOR-style.
func (r ObjectRef) String() string {
	return fmt.Sprintf("itdos://%s/%s#%s", r.Domain, r.ObjectKey, r.Interface)
}

// Caller issues nested invocations on behalf of a servant. Inside an
// ITDOS replication domain element, Call blocks the ORB thread while the
// delivery thread keeps running — the paper's two-thread model (§3.1).
type Caller interface {
	Call(ref ObjectRef, op string, args []cdr.Value) ([]cdr.Value, error)
}

// CallContext carries per-invocation information to a servant.
type CallContext struct {
	ObjectKey string
	Interface string
	Operation string
	RequestID uint64
	// Caller lets the servant invoke other objects through the
	// middleware. Nil when the runtime does not support nesting.
	Caller Caller
}

// Servant is an application object implementation. Implementations must
// be deterministic (paper §2): same invocation sequence, same results.
type Servant interface {
	Invoke(ctx *CallContext, op string, args []cdr.Value) ([]cdr.Value, error)
}

// ServantFunc adapts a function to Servant.
type ServantFunc func(ctx *CallContext, op string, args []cdr.Value) ([]cdr.Value, error)

// Invoke implements Servant.
func (f ServantFunc) Invoke(ctx *CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
	return f(ctx, op, args)
}

// UserException is a declared application-level exception: it maps to a
// GIOP USER_EXCEPTION reply rather than a system exception.
type UserException struct {
	Name string
}

// Error implements error.
func (e *UserException) Error() string { return e.Name }

// ErrObjectNotExist is returned for unknown object keys (CORBA
// OBJECT_NOT_EXIST).
var ErrObjectNotExist = errors.New("OBJECT_NOT_EXIST")

// ErrBadOperation is returned for unknown operations (CORBA BAD_OPERATION).
var ErrBadOperation = errors.New("BAD_OPERATION")

type registration struct {
	servant Servant
	iface   *idl.Interface
}

// Adapter is the object adapter: it maps object keys to servants and
// dispatches unmarshalled requests. It is driven from the single ORB
// thread of a replication domain element and is therefore not locked.
type Adapter struct {
	registry *idl.Registry
	objects  map[string]registration

	// ResultTransform, if set, post-processes successful results before
	// marshalling. The replica runtime uses it to apply platform float
	// divergence (heterogeneous FPUs/math libraries produce slightly
	// different floating-point results — the reason ITDOS needs inexact
	// voting, paper §3.6).
	ResultTransform func(op *idl.Operation, results []cdr.Value) []cdr.Value
}

// NewAdapter builds an adapter resolving interfaces in registry.
func NewAdapter(registry *idl.Registry) *Adapter {
	return &Adapter{registry: registry, objects: make(map[string]registration)}
}

// Register binds a servant to an object key under an interface name that
// must exist in the registry.
func (a *Adapter) Register(objectKey, ifaceName string, s Servant) error {
	iface, err := a.registry.Interface(ifaceName)
	if err != nil {
		return fmt.Errorf("orb: register %q: %w", objectKey, err)
	}
	a.objects[objectKey] = registration{servant: s, iface: iface}
	return nil
}

// Registry returns the adapter's interface registry.
func (a *Adapter) Registry() *idl.Registry { return a.registry }

// DispatchValues invokes the servant for objectKey with already
// unmarshalled arguments and returns the GIOP reply. Its results stay
// values (Reply.Results): giop.AppendReply marshals them once, in the byte
// order the reply is encoded in (the element's native order —
// heterogeneous replicas reply in different orders, which is the point).
func (a *Adapter) DispatchValues(objectKey, ifaceName, op string, requestID uint64,
	args []cdr.Value, caller Caller) *giop.Reply {

	reg, ok := a.objects[objectKey]
	if !ok {
		return systemException(requestID, ErrObjectNotExist.Error())
	}
	if reg.iface.Name != ifaceName {
		return systemException(requestID,
			fmt.Sprintf("INTERFACE_MISMATCH: object %q implements %s", objectKey, reg.iface.Name))
	}
	opDef, err := reg.iface.Operation(op)
	if err != nil {
		return systemException(requestID, ErrBadOperation.Error())
	}
	if len(args) != len(opDef.Params) {
		return systemException(requestID,
			fmt.Sprintf("BAD_PARAM: %s.%s takes %d arguments, got %d",
				ifaceName, op, len(opDef.Params), len(args)))
	}
	ctx := &CallContext{
		ObjectKey: objectKey, Interface: ifaceName, Operation: op,
		RequestID: requestID, Caller: caller,
	}
	results, err := reg.servant.Invoke(ctx, op, args)
	if err != nil {
		var ue *UserException
		if errors.As(err, &ue) {
			return &giop.Reply{
				RequestID: requestID,
				Status:    giop.StatusUserException,
				Exception: ue.Name,
			}
		}
		return systemException(requestID, err.Error())
	}
	if len(results) != len(opDef.Results) {
		return systemException(requestID,
			fmt.Sprintf("MARSHAL: %s.%s returns %d results, servant produced %d",
				ifaceName, op, len(opDef.Results), len(results)))
	}
	if a.ResultTransform != nil {
		results = a.ResultTransform(opDef, results)
	}
	return &giop.Reply{RequestID: requestID, Status: giop.StatusNoException,
		Results: results, ResultsType: opDef.ResultsType()}
}

// Dispatch unmarshals a raw GIOP request (in its sender's byte order) and
// dispatches it. The last argument names the byte order the reply will be
// encoded in; the encoder takes it (see DispatchValues).
func (a *Adapter) Dispatch(req *giop.Request, reqOrder cdr.ByteOrder,
	caller Caller, _ cdr.ByteOrder) *giop.Reply {

	opDef, err := a.registry.Lookup(req.Interface, req.Operation)
	if err != nil {
		return systemException(req.RequestID, ErrBadOperation.Error())
	}
	args, err := cdr.Unmarshal(opDef.ParamsType(), req.Body, reqOrder)
	if err != nil {
		return systemException(req.RequestID, fmt.Sprintf("MARSHAL: %v", err))
	}
	argList, ok := args.([]cdr.Value)
	if !ok {
		return systemException(req.RequestID, "MARSHAL: parameter list is not a struct")
	}
	return a.DispatchValues(req.ObjectKey, req.Interface, req.Operation,
		req.RequestID, argList, caller)
}

func systemException(requestID uint64, msg string) *giop.Reply {
	return &giop.Reply{
		RequestID: requestID,
		Status:    giop.StatusSystemException,
		Exception: msg,
	}
}

// Protocol is the pluggable transport interface, mirroring TAO's pluggable
// protocol framework: the ORB hands a marshalled request to the protocol
// and blocks for the (voted) reply. The returned byte order is the order
// the reply body was marshalled in (GIOP carries it in the message header;
// it travels alongside the decoded reply here).
type Protocol interface {
	// Invoke sends req to the object's domain and returns the agreed
	// reply. It runs on the calling (ORB) thread and may block.
	Invoke(ref ObjectRef, req *giop.Request) (*giop.Reply, cdr.ByteOrder, error)
}

// Client is the client-side ORB: typed invocation over a Protocol.
type Client struct {
	registry *idl.Registry
	protocol Protocol
	order    cdr.ByteOrder

	// Tracer, if set, wraps each Call in an "invoke" span with
	// orb.marshal / orb.unmarshal children (Fig. 2 top layer). Metrics, if
	// set, counts calls and call errors. Both are nil-safe.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// NewClient builds a client ORB marshalling in the platform's byte order.
func NewClient(registry *idl.Registry, protocol Protocol, order cdr.ByteOrder) *Client {
	return &Client{registry: registry, protocol: protocol, order: order}
}

// Call invokes op on the referenced object and returns the unmarshalled
// results, which are the caller's to keep and change. GIOP exceptions surface as errors: *UserException for declared
// exceptions, generic errors for system exceptions.
func (c *Client) Call(ref ObjectRef, op string, args []cdr.Value) (results []cdr.Value, err error) {
	sp := c.Tracer.Start("invoke", "op="+ref.Interface+"."+op, "domain="+ref.Domain)
	defer sp.End()
	c.Metrics.Counter("orb_calls_total").Inc()
	defer func() {
		if err != nil {
			c.Metrics.Counter("orb_call_errors_total").Inc()
		}
	}()

	opDef, err := c.registry.Lookup(ref.Interface, op)
	if err != nil {
		return nil, err
	}
	if len(args) != len(opDef.Params) {
		return nil, fmt.Errorf("orb: %s.%s takes %d arguments, got %d",
			ref.Interface, op, len(opDef.Params), len(args))
	}
	msp := c.Tracer.Start("orb.marshal")
	body, err := cdr.Marshal(opDef.ParamsType(), args, c.order)
	msp.End()
	if err != nil {
		return nil, fmt.Errorf("orb: marshal %s.%s: %w", ref.Interface, op, err)
	}
	req := &giop.Request{
		ObjectKey:        ref.ObjectKey,
		Interface:        ref.Interface,
		Operation:        op,
		ResponseExpected: true,
		// The protocol decides whether to honour the read-only fast path;
		// the transport clears the flag when the feature is disabled so
		// legacy wire streams stay byte-identical.
		ReadOnly: opDef.ReadOnly,
		Body:     body,
	}
	reply, order, err := c.protocol.Invoke(ref, req)
	if err != nil {
		return nil, err
	}
	switch reply.Status {
	case giop.StatusUserException:
		return nil, &UserException{Name: reply.Exception}
	case giop.StatusSystemException:
		return nil, fmt.Errorf("orb: system exception: %s", reply.Exception)
	}
	// A protocol that voted on decoded values hands them over: they are
	// not decoded again.
	decoded := reply.Results
	if reply.ResultsType == nil {
		usp := c.Tracer.Start("orb.unmarshal")
		decoded, err = cdr.Unmarshal(opDef.ResultsType(), reply.Body, order)
		usp.End()
		if err != nil {
			return nil, fmt.Errorf("orb: unmarshal %s.%s results: %w", ref.Interface, op, err)
		}
	}
	list, ok := decoded.([]cdr.Value)
	if !ok {
		return nil, fmt.Errorf("orb: result list is not a struct")
	}
	return list, nil
}
