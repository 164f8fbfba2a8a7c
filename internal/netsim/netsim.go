// Package netsim models the client–server link of the paper's
// experimental setup (§7.1): a 100 Mbps network between one
// 8-processor server and one single-processor client. Since this
// reproduction runs both roles in one process, transmission time is
// computed deterministically from the byte volume, which is exactly
// what the paper's accounting needs (it reports transmission as a
// separate, negligible-at-100Mbps component in §7.2).
package netsim

import "time"

// Link describes a simulated network link.
type Link struct {
	// BandwidthMbps is the link bandwidth in megabits per second.
	BandwidthMbps float64
	// LatencyMs is the one-way latency added per transfer.
	LatencyMs float64
}

// Paper is the setup of §7.1: 100 Mbps LAN, sub-millisecond latency.
var Paper = Link{BandwidthMbps: 100, LatencyMs: 0.2}

// TransferTime returns the simulated time to move n bytes.
func (l Link) TransferTime(n int) time.Duration {
	if l.BandwidthMbps <= 0 {
		return 0
	}
	seconds := float64(n*8)/(l.BandwidthMbps*1e6) + l.LatencyMs/1e3
	return time.Duration(seconds * float64(time.Second))
}
