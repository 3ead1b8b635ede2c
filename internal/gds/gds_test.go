package gds

import (
	"testing"

	"ssdtrain/internal/tensor"
	"ssdtrain/internal/units"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry(0)
	s := tensor.NewStorage(1024, tensor.GPU)
	if r.IsRegistered(s) {
		t.Error("fresh storage registered")
	}
	if r.PathFor(s) != Bounce {
		t.Error("unregistered storage should bounce")
	}
	r.Register(s)
	r.Register(s) // idempotent
	if !r.IsRegistered(s) || r.PathFor(s) != Direct {
		t.Error("registration missing")
	}
	if r.Registrations() != 1 {
		t.Errorf("registrations = %d", r.Registrations())
	}
	r.Deregister(s)
	r.Deregister(s)
	if r.IsRegistered(s) || r.Deregistrations() != 1 {
		t.Error("deregistration wrong")
	}
}

func TestEffectiveBandwidthDerating(t *testing.T) {
	r := NewRegistry(0)
	s := tensor.NewStorage(1024, tensor.GPU)
	nominal := units.Bandwidth(20 * units.GBps)
	if bw := r.EffectiveBandwidth(s, nominal); bw != 10*units.GBps {
		t.Errorf("bounce bandwidth = %v", bw)
	}
	r.Register(s)
	if bw := r.EffectiveBandwidth(s, nominal); bw != nominal {
		t.Errorf("direct bandwidth = %v", bw)
	}
}

func TestMallocHook(t *testing.T) {
	r := NewRegistry(0)
	h := NewMallocHook(r)
	s := tensor.NewStorage(64, tensor.GPU)
	h.OnAlloc(s)
	if !r.IsRegistered(s) {
		t.Error("hook did not register")
	}
	h.OnFree(s)
	if r.IsRegistered(s) {
		t.Error("hook did not deregister")
	}
	// Disabled hook is inert (the ablation path).
	h.Enabled = false
	s2 := tensor.NewStorage(64, tensor.GPU)
	h.OnAlloc(s2)
	if r.IsRegistered(s2) {
		t.Error("disabled hook registered memory")
	}
}

func TestPathString(t *testing.T) {
	if Direct.String() != "direct" || Bounce.String() != "bounce" {
		t.Error("path names wrong")
	}
}
