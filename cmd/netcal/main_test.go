package main

import "testing"

// TestCalibrate runs the full α/β measurement on a small in-process tcp
// world: the estimates must be positive and finite, and the world must
// not abort. The sweep is deliberately tiny — this pins the measurement
// plumbing, not loopback performance.
func TestCalibrate(t *testing.T) {
	alpha, beta, err := calibrate("tcp", 25, 16<<10, 4)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	if alpha <= 0 {
		t.Errorf("α = %v, want > 0", alpha)
	}
	if beta <= 0 {
		t.Errorf("β = %v B/s, want > 0", beta)
	}
}

// TestCalibrateShmem runs the sweep at the command's default sizes on an
// in-process shmem world: ~400 MiB of one-shot payload, more than the whole
// segment, so it passes only because consumed send blocks are reclaimed.
func TestCalibrateShmem(t *testing.T) {
	alpha, beta, err := calibrate("shmem", 25, 4<<20, 16)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	if alpha <= 0 || beta <= 0 {
		t.Errorf("α = %v, β = %v B/s, want both > 0", alpha, beta)
	}
}

// TestCalibrateUnknownTransport: a bad backend name surfaces the registry
// error instead of panicking mid-measurement.
func TestCalibrateUnknownTransport(t *testing.T) {
	if _, _, err := calibrate("bogus", 1, 8<<10, 1); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
