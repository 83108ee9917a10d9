package orb

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"itdos/internal/cdr"
	"itdos/internal/giop"
	"itdos/internal/idl"
)

func calcRegistry() *idl.Registry {
	reg := idl.NewRegistry()
	reg.Register(idl.NewInterface("IDL:Calc:1.0").
		Op("add",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "sum", Type: cdr.Double}}).
		Op("div",
			[]idl.Param{{Name: "a", Type: cdr.Double}, {Name: "b", Type: cdr.Double}},
			[]idl.Param{{Name: "quot", Type: cdr.Double}}))
	return reg
}

type calcServant struct{}

func (calcServant) Invoke(ctx *CallContext, op string, args []cdr.Value) ([]cdr.Value, error) {
	a := args[0].(float64)
	b := args[1].(float64)
	switch op {
	case "add":
		return []cdr.Value{a + b}, nil
	case "div":
		if b == 0 {
			return nil, &UserException{Name: "IDL:Calc/DivideByZero:1.0"}
		}
		return []cdr.Value{a / b}, nil
	}
	return nil, ErrBadOperation
}

func newCalcAdapter(t *testing.T) *Adapter {
	t.Helper()
	a := NewAdapter(calcRegistry())
	if err := a.Register("calc-1", "IDL:Calc:1.0", calcServant{}); err != nil {
		t.Fatal(err)
	}
	return a
}

// encodedBody is the result list of rep as it travels: encoded in order,
// then decoded.
func encodedBody(t *testing.T, rep *giop.Reply, order cdr.ByteOrder) []byte {
	t.Helper()
	msg, err := giop.Decode(giop.EncodeReply(order, rep))
	if err != nil {
		t.Fatal(err)
	}
	return msg.Reply.Body
}

func TestDispatchValues(t *testing.T) {
	a := newCalcAdapter(t)
	rep := a.DispatchValues("calc-1", "IDL:Calc:1.0", "add", 5,
		[]cdr.Value{2.0, 3.0}, nil)
	if rep.Status != giop.StatusNoException {
		t.Fatalf("status = %v (%s)", rep.Status, rep.Exception)
	}
	res, err := cdr.Unmarshal(mustOp(t, "add").ResultsType(), encodedBody(t, rep, cdr.LittleEndian), cdr.LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.([]cdr.Value)[0].(float64); got != 5.0 {
		t.Fatalf("sum = %v", got)
	}
	if rep.RequestID != 5 {
		t.Fatalf("request id = %d", rep.RequestID)
	}
}

func mustOp(t *testing.T, name string) *idl.Operation {
	t.Helper()
	op, err := calcRegistry().Lookup("IDL:Calc:1.0", name)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestUserExceptionMapsToUserStatus(t *testing.T) {
	a := newCalcAdapter(t)
	rep := a.DispatchValues("calc-1", "IDL:Calc:1.0", "div", 1,
		[]cdr.Value{1.0, 0.0}, nil)
	if rep.Status != giop.StatusUserException {
		t.Fatalf("status = %v", rep.Status)
	}
	if rep.Exception != "IDL:Calc/DivideByZero:1.0" {
		t.Fatalf("exception = %q", rep.Exception)
	}
}

func TestDispatchErrors(t *testing.T) {
	a := newCalcAdapter(t)
	cases := []struct {
		name    string
		key     string
		iface   string
		op      string
		args    []cdr.Value
		wantSub string
	}{
		{"unknown object", "nope", "IDL:Calc:1.0", "add", []cdr.Value{1.0, 2.0}, "OBJECT_NOT_EXIST"},
		{"unknown op", "calc-1", "IDL:Calc:1.0", "mul", []cdr.Value{1.0, 2.0}, "BAD_OPERATION"},
		{"wrong iface", "calc-1", "IDL:Other:1.0", "add", []cdr.Value{1.0, 2.0}, "INTERFACE_MISMATCH"},
		{"wrong arity", "calc-1", "IDL:Calc:1.0", "add", []cdr.Value{1.0}, "BAD_PARAM"},
	}
	for _, c := range cases {
		rep := a.DispatchValues(c.key, c.iface, c.op, 1, c.args, nil)
		if rep.Status != giop.StatusSystemException || !strings.Contains(rep.Exception, c.wantSub) {
			t.Errorf("%s: status=%v exception=%q", c.name, rep.Status, rep.Exception)
		}
	}
}

func TestDispatchRawRequestCrossEndian(t *testing.T) {
	a := newCalcAdapter(t)
	op := mustOp(t, "add")
	body, err := cdr.Marshal(op.ParamsType(), []cdr.Value{10.0, 32.0}, cdr.LittleEndian)
	if err != nil {
		t.Fatal(err)
	}
	req := &giop.Request{
		RequestID: 9, ObjectKey: "calc-1", Interface: "IDL:Calc:1.0",
		Operation: "add", ResponseExpected: true, Body: body,
	}
	rep := a.Dispatch(req, cdr.LittleEndian, nil, cdr.BigEndian)
	if rep.Status != giop.StatusNoException {
		t.Fatalf("status=%v exception=%q", rep.Status, rep.Exception)
	}
	res, err := cdr.Unmarshal(op.ResultsType(), encodedBody(t, rep, cdr.BigEndian), cdr.BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.([]cdr.Value)[0].(float64); got != 42.0 {
		t.Fatalf("sum = %v", got)
	}
}

// loopProtocol short-circuits invocations to a local adapter, modelling a
// plain (non-replicated) transport for client ORB tests.
type loopProtocol struct {
	adapter *Adapter
	order   cdr.ByteOrder
}

func (p loopProtocol) Invoke(ref ObjectRef, req *giop.Request) (*giop.Reply, cdr.ByteOrder, error) {
	rep := p.adapter.Dispatch(req, cdr.BigEndian, nil, p.order)
	return rep, p.order, nil
}

func TestClientCallEndToEnd(t *testing.T) {
	a := newCalcAdapter(t)
	// Server replies little-endian; client marshals big-endian.
	cli := NewClient(calcRegistry(), loopProtocol{adapter: a, order: cdr.LittleEndian}, cdr.BigEndian)
	ref := ObjectRef{Domain: "calc", ObjectKey: "calc-1", Interface: "IDL:Calc:1.0"}
	res, err := cli.Call(ref, "add", []cdr.Value{20.0, 22.0})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(float64) != 42.0 {
		t.Fatalf("result = %v", res)
	}

	_, err = cli.Call(ref, "div", []cdr.Value{1.0, 0.0})
	var ue *UserException
	if !errors.As(err, &ue) || ue.Name != "IDL:Calc/DivideByZero:1.0" {
		t.Fatalf("err = %v", err)
	}

	if _, err := cli.Call(ref, "add", []cdr.Value{1.0}); err == nil {
		t.Fatal("arity error not caught client-side")
	}
	if _, err := cli.Call(ref, "nope", nil); err == nil {
		t.Fatal("unknown op not caught client-side")
	}
}

func TestServantDeterminismAcrossAdapters(t *testing.T) {
	// Two adapters (two replicas) given the same invocation stream produce
	// byte-different replies in their own byte orders that unmarshal to
	// equal values — the heterogeneity invariant end to end.
	a1 := newCalcAdapter(t)
	a2 := newCalcAdapter(t)
	op := mustOp(t, "add")
	for i := 0; i < 10; i++ {
		args := []cdr.Value{float64(i), float64(i * 2)}
		r1 := a1.DispatchValues("calc-1", "IDL:Calc:1.0", "add", uint64(i), args, nil)
		r2 := a2.DispatchValues("calc-1", "IDL:Calc:1.0", "add", uint64(i), args, nil)
		v1, err := cdr.Unmarshal(op.ResultsType(), encodedBody(t, r1, cdr.BigEndian), cdr.BigEndian)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := cdr.Unmarshal(op.ResultsType(), encodedBody(t, r2, cdr.LittleEndian), cdr.LittleEndian)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := cdr.EqualValues(op.ResultsType(), v1, v2, nil)
		if err != nil || !eq {
			t.Fatalf("iteration %d: replicas disagree: %v vs %v", i, v1, v2)
		}
	}
}

func TestObjectRefString(t *testing.T) {
	ref := ObjectRef{Domain: "bank", ObjectKey: "acct-1", Interface: "IDL:Bank:1.0"}
	want := "itdos://bank/acct-1#IDL:Bank:1.0"
	if got := fmt.Sprint(ref); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRegisterUnknownInterfaceFails(t *testing.T) {
	a := NewAdapter(calcRegistry())
	if err := a.Register("x", "IDL:Missing:1.0", calcServant{}); err == nil {
		t.Fatal("unknown interface accepted")
	}
}
