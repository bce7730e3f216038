package core

import (
	"context"
	"errors"
	"testing"

	"physdep/internal/floorplan"
	"physdep/internal/physerr"
	"physdep/internal/topology"
)

func TestEvaluateInputValidation(t *testing.T) {
	ft, err := topology.FatTree(topology.FatTreeConfig{K: 4, Rate: 100})
	if err != nil {
		t.Fatal(err)
	}
	hall := floorplan.DefaultHall(3, 10)
	bad := []struct {
		name string
		in   Input
	}{
		{"nil topology", Input{Hall: hall}},
		{"negative steps", Input{Topo: ft, Hall: hall, PlacementSteps: -1}},
		{"negative restarts", Input{Topo: ft, Hall: hall, PlacementRestarts: -2}},
		{"negative techs", Input{Topo: ft, Hall: hall, Techs: -8}},
		{"bad hall", Input{Topo: ft, Hall: floorplan.DefaultHall(0, 10)}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := EvaluateCtx(context.Background(), tc.in)
			if err == nil {
				t.Fatal("invalid input was accepted")
			}
			if !errors.Is(err, physerr.ErrOutOfRange) {
				t.Fatalf("err = %v, want ErrOutOfRange", err)
			}
		})
	}
}
