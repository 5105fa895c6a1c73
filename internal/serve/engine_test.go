package serve

import (
	"context"
	"strings"
	"testing"

	"spt"
)

func TestRunSpecRejectsUnknownType(t *testing.T) {
	if _, err := runSpec(context.Background(), &JobSpec{Type: "bogus"}, 1, nil); err == nil {
		t.Fatal("unknown type executed")
	}
}

func TestPayloadHelpersRejectMissingResults(t *testing.T) {
	cell := CellSpec{Workload: "mcf", Scheme: "unsafe", Model: "futuristic", Width: 3, Budget: 1000}
	empty := map[spt.Job]*spt.Result{}
	if _, err := SimulatePayload(cell, empty); err == nil || !strings.Contains(err.Error(), "missing result") {
		t.Fatalf("SimulatePayload: want missing-result error, got %v", err)
	}
	if _, err := GridPayload([]CellSpec{cell}, empty); err == nil || !strings.Contains(err.Error(), "missing result") {
		t.Fatalf("GridPayload: want missing-result error, got %v", err)
	}
	bad := CellSpec{Workload: "mcf", Sample: "not-a-spec"}
	if _, err := SimulatePayload(bad, empty); err == nil {
		t.Fatal("SimulatePayload accepted a malformed sample spec")
	}
	if _, err := GridPayload([]CellSpec{bad}, empty); err == nil {
		t.Fatal("GridPayload accepted a malformed sample spec")
	}
}

func TestDeterministicResultZerosHostStats(t *testing.T) {
	if deterministicResult(nil) != nil {
		t.Fatal("nil result not passed through")
	}
	r := &spt.Result{Workload: "mcf", Cycles: 42, Host: spt.HostStats{Seconds: 1.5, SimKIPS: 10}}
	d := deterministicResult(r)
	if d.Host != (spt.HostStats{}) {
		t.Fatalf("host stats survived: %+v", d.Host)
	}
	if d.Cycles != 42 || r.Host.Seconds != 1.5 {
		t.Fatal("deterministicResult mutated the original or lost data")
	}
}
