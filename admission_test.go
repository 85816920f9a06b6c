package tnnbcast_test

import (
	"errors"
	"math"
	"testing"

	"tnnbcast"
)

// TestRejectsNegativeCut: a negative replicated-level count is refused by
// both constructors, naming the option, instead of silently selecting the
// automatic cut.
func TestRejectsNegativeCut(t *testing.T) {
	pts := tnnbcast.UniformDataset(3, 30, tnnbcast.PaperRegion)
	opts := []tnnbcast.Option{
		tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex),
		tnnbcast.WithReplicatedLevels(-1),
	}
	_, err := tnnbcast.New(pts, pts, opts...)
	var ue *tnnbcast.UnsupportedOptionError
	if !errors.As(err, &ue) || ue.Func != "New" || ue.Option != "WithReplicatedLevels" {
		t.Errorf("New: error %T %v, want *UnsupportedOptionError for WithReplicatedLevels", err, err)
	}
	_, err = tnnbcast.NewChain([][]tnnbcast.Point{pts, pts, pts}, opts...)
	if !errors.As(err, &ue) || ue.Func != "NewChain" || ue.Option != "WithReplicatedLevels" {
		t.Errorf("NewChain: error %T %v, want *UnsupportedOptionError for WithReplicatedLevels", err, err)
	}
}

// TestNewRejectsCycleOverInt32: one object whose content fills 2³¹-1
// pages puts 2³¹ slots in a cycle (its pages plus the root's). New must
// return an error rather than panic in the build.
func TestNewRejectsCycleOverInt32(t *testing.T) {
	one := []tnnbcast.Point{tnnbcast.Pt(1, 2)}
	var sys *tnnbcast.System
	var err error
	func() {
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("New panicked: %v", v)
			}
		}()
		sys, err = tnnbcast.New(one, one, tnnbcast.WithDataSize(64*math.MaxInt32))
	}()
	if err == nil || sys != nil {
		t.Fatalf("New: system %v, error %v; want an error", sys, err)
	}
}
