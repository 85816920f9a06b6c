package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tnnbcast/internal/geom"
)

// TestRegistryBuiltins pins the invariant the whole public API leans on:
// the built-in ids, names, and aliases resolve to the registered specs,
// and Run through the registry matches the algorithm functions bit for
// bit.
func TestRegistryBuiltins(t *testing.T) {
	byAlias := map[string]Algo{
		"window": AlgoWindow, "double": AlgoDouble, "hybrid": AlgoHybrid, "approx": AlgoApprox,
	}
	for alias, want := range byAlias {
		if a, ok := AlgoByName(alias); !ok || a != want {
			t.Fatalf("AlgoByName(%q) = %v, %v", alias, a, ok)
		}
		if a, ok := AlgoByName(strings.ToUpper(want.String())); !ok || a != want {
			t.Fatalf("AlgoByName(%q) = %v, %v", want.String(), a, ok)
		}
		spec, ok := Lookup(want)
		if !ok || spec.Name != want.String() {
			t.Fatalf("Lookup(%v) = %+v, %v", want, spec, ok)
		}
	}
	if _, ok := Lookup(Algo(-1)); ok {
		t.Fatal("Lookup(-1) succeeded")
	}
	if _, ok := AlgoByName("no such thing"); ok {
		t.Fatal("AlgoByName on garbage succeeded")
	}

	rng := rand.New(rand.NewSource(5))
	te := makeEnv(t, uniformPts(rng, 900, testRegion), uniformPts(rng, 900, testRegion),
		testRegion, 17, 23)
	p := geom.Pt(640, 410)
	for a := AlgoWindow; a <= AlgoApprox; a++ {
		// Reference: a QueryExec stepped by hand.
		var qe QueryExec
		qe.Reset(te.env, a, p, Options{})
		for !qe.Done() {
			qe.Step()
		}
		want := qe.Result()
		got, ok := Run(te.env, a, p, Options{})
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Run(%v) = %+v, %v; want %+v", a, got, ok, want)
		}
		ex, ok := NewExec(te.env, a, p, Options{})
		if !ok {
			t.Fatalf("NewExec(%v) failed", a)
		}
		for !ex.Done() {
			ex.Step()
		}
		if !reflect.DeepEqual(ex.Result(), want) {
			t.Fatalf("NewExec(%v) result differs", a)
		}
	}
	if _, ok := Run(te.env, Algo(4096), p, Options{}); ok {
		t.Fatal("Run accepted an unregistered algorithm")
	}
}

// TestRegisterValidation checks duplicate and malformed registrations.
func TestRegisterValidation(t *testing.T) {
	if _, err := Register(AlgoSpec{Name: "", New: builtinFactory(AlgoDouble)}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := Register(AlgoSpec{Name: "nameless-factory"}); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := Register(AlgoSpec{Name: "DOUBLE-nn", New: builtinFactory(AlgoDouble)}); err == nil {
		t.Fatal("case-colliding duplicate name accepted")
	}
	if _, err := Register(AlgoSpec{Name: "fresh-name", Alias: "Window", New: builtinFactory(AlgoDouble)}); err == nil {
		t.Fatal("alias colliding with a built-in alias accepted")
	}

	id, err := Register(AlgoSpec{Name: "registry-test-ok", Alias: "rtok", New: builtinFactory(AlgoHybrid)})
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := AlgoByName("rtok"); !ok || a != id {
		t.Fatalf("alias lookup = %v, %v; want %v", a, ok, id)
	}
	if id.String() != "registry-test-ok" {
		t.Fatalf("String() = %q", id.String())
	}
}
