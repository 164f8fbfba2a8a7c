package netsim

import (
	"testing"
	"time"
)

func TestTransferTimePaperLink(t *testing.T) {
	// 100 Mbps: 12.5 MB/s; 1 MB should take ~80 ms + 0.2 ms latency.
	d := Paper.TransferTime(1_000_000)
	if d < 75*time.Millisecond || d > 90*time.Millisecond {
		t.Errorf("1MB over 100Mbps = %v", d)
	}
	// Zero bytes: latency only.
	if d := Paper.TransferTime(0); d < 100*time.Microsecond || d > time.Millisecond {
		t.Errorf("latency-only transfer = %v", d)
	}
}

func TestTransferTimeScalesLinearly(t *testing.T) {
	d1 := Paper.TransferTime(1_000_000)
	d2 := Paper.TransferTime(2_000_000)
	// Subtract latency before comparing slopes.
	lat := Paper.TransferTime(0)
	if (d2-lat) < 19*(d1-lat)/10 || (d2-lat) > 21*(d1-lat)/10 {
		t.Errorf("not linear: %v vs %v", d1, d2)
	}
}

func TestWANSlower(t *testing.T) {
	wan := Link{BandwidthMbps: 20, LatencyMs: 20}
	if wan.TransferTime(1_000_000) <= Paper.TransferTime(1_000_000) {
		t.Errorf("a 20 Mbps WAN should be slower than the paper's LAN")
	}
}

func TestZeroBandwidth(t *testing.T) {
	l := Link{}
	if l.TransferTime(1000) != 0 {
		t.Errorf("zero-bandwidth link should report 0")
	}
}
