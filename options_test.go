package itdos_test

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"itdos/internal/cluster"
	"itdos/internal/groupmgr"
	"itdos/internal/itc"
	"itdos/internal/pbft"
	"itdos/internal/replica"
	"itdos/internal/smiop"
	"itdos/internal/srm"
	"itdos/internal/transport/tcp"
)

const optionSurfacePath = "testdata/option_surface.json"

var updateOptionSurface = flag.Bool("update-option-surface", false,
	"rewrite testdata/option_surface.json with the current config fields")

// TestOptionSurface pins every exported field of the stack's configuration
// structs, so a setting added or removed shows up as a reviewed diff of the
// golden file. Regenerate with:
//
//	go test . -run TestOptionSurface -update-option-surface
func TestOptionSurface(t *testing.T) {
	surface := map[string][]string{}
	for _, v := range []any{
		replica.SystemConfig{},
		pbft.Config{},
		pbft.ClientConfig{},
		srm.DomainConfig{},
		smiop.StreamConfig{},
		tcp.Config{},
		itc.Config{},
		groupmgr.Config{},
		cluster.Spec{},
		cluster.NodeOptions{},
	} {
		typ := reflect.TypeOf(v)
		fields := []string{}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, f.Name+" "+f.Type.String())
			}
		}
		surface[typ.String()] = fields
	}
	if *updateOptionSurface {
		out, err := json.MarshalIndent(surface, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(optionSurfacePath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(optionSurfacePath)
	if err != nil {
		t.Fatalf("no committed option surface (run with -update-option-surface): %v", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(surface, want) {
		got, _ := json.MarshalIndent(surface, "", "  ")
		t.Errorf("config fields differ from %s (review, then run with -update-option-surface):\n%s",
			optionSurfacePath, got)
	}
}
