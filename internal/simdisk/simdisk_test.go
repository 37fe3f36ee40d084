package simdisk

import (
	"testing"
	"time"
)

func TestModelSequentialSkipsSeek(t *testing.T) {
	m := DefaultModel()
	first := m.AccessTime(1, 0, 4096)
	second := m.AccessTime(1, 4096, 4096) // continues where first ended
	third := m.AccessTime(1, 1<<20, 4096) // jumps away

	if first <= second {
		t.Errorf("first access %v should pay seek, sequential %v should not", first, second)
	}
	wantSeq := m.TransferTime(4096)
	if second != wantSeq {
		t.Errorf("sequential access = %v, want pure transfer %v", second, wantSeq)
	}
	if third != m.AvgSeek+m.AvgRotation+wantSeq {
		t.Errorf("random access = %v", third)
	}
}

func TestModelDifferentFileBreaksSequentiality(t *testing.T) {
	m := DefaultModel()
	m.AccessTime(1, 0, 4096)
	d := m.AccessTime(2, 4096, 4096)
	if d == m.TransferTime(4096) {
		t.Error("access to a different file must pay positioning time")
	}
}

func TestModelReset(t *testing.T) {
	m := DefaultModel()
	m.AccessTime(1, 0, 4096)
	m.Reset()
	d := m.AccessTime(1, 4096, 4096)
	if d == m.TransferTime(4096) {
		t.Error("reset should clear sequential state")
	}
}

func TestModelTransferTimeScalesLinearly(t *testing.T) {
	m := DefaultModel()
	t1 := m.TransferTime(1 << 20)
	t2 := m.TransferTime(2 << 20)
	if t2 < t1*2-time.Microsecond || t2 > t1*2+time.Microsecond {
		t.Errorf("transfer not linear: %v vs %v", t1, t2)
	}
	if m.TransferTime(0) != 0 || m.TransferTime(-5) != 0 {
		t.Error("non-positive length should cost zero")
	}
}

func TestModelZeroRateNoPanic(t *testing.T) {
	m := &Model{AvgSeek: time.Millisecond}
	if m.TransferTime(100) != 0 {
		t.Error("zero rate should cost zero transfer")
	}
}
