// Package model is the single calibration point of the simulated Azure
// cloud: the VM size catalogue (the paper's Table I), the service-time
// constants of the storage fabric, and the scalability targets. Every
// constant that shapes a figure lives here, so ablations and
// re-calibrations touch one file.
package model

import "fmt"

// VMSize describes a web/worker role VM configuration (paper Table I).
type VMSize struct {
	Name     string
	CPUCores float64 // 0.5 denotes the Extra Small "shared" core
	MemoryMB int
	DiskGB   int
	// NICBps is the provisioned network bandwidth in bytes/second
	// (contemporaneous Azure allocations: 5 Mbps for Extra Small, then
	// 100 Mbps per core).
	NICBps int64
}

// String formats the size like the paper's Table I row.
func (v VMSize) String() string {
	cores := fmt.Sprintf("%g", v.CPUCores)
	if v.CPUCores == 0.5 {
		cores = "Shared"
	}
	return fmt.Sprintf("%-11s cores=%-6s mem=%dMB disk=%dGB nic=%dMbps",
		v.Name, cores, v.MemoryMB, v.DiskGB, v.NICBps*8/1_000_000)
}

// The VM sizes of Table I.
var (
	ExtraSmall = VMSize{Name: "ExtraSmall", CPUCores: 0.5, MemoryMB: 768, DiskGB: 20, NICBps: 5_000_000 / 8}
	Small      = VMSize{Name: "Small", CPUCores: 1, MemoryMB: 1792, DiskGB: 225, NICBps: 100_000_000 / 8}
	Medium     = VMSize{Name: "Medium", CPUCores: 2, MemoryMB: 3584, DiskGB: 490, NICBps: 200_000_000 / 8}
	Large      = VMSize{Name: "Large", CPUCores: 4, MemoryMB: 7168, DiskGB: 1000, NICBps: 400_000_000 / 8}
	ExtraLarge = VMSize{Name: "ExtraLarge", CPUCores: 8, MemoryMB: 14336, DiskGB: 2040, NICBps: 800_000_000 / 8}
)

// VMSizes lists the catalogue in Table I order.
var VMSizes = []VMSize{ExtraSmall, Small, Medium, Large, ExtraLarge}
