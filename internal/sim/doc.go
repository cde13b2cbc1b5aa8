// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Processes are coroutines (iter.Pull) that run cooperatively: exactly one
// process (or the kernel) executes at a time, and control is handed over at
// well-defined yield points (Sleep, Acquire, Wait, ...) by a direct
// coroutine switch — no channel, no trip through the Go scheduler. Virtual
// time only advances in the kernel loop, between events. Given the same seed and the
// same program, a simulation produces the identical event trace on every
// run, which makes experiments reproducible bit-for-bit.
//
// The design follows the classic SimPy/CSIM process model:
//
//   - Env owns the virtual clock and the queue of pending events.
//   - Proc is a cooperative process; it may only call blocking primitives
//     from its own coroutine while it is the running process. Proc.Exec
//     hands the kernel a program of sleeps, acquires, releases and calls of
//     Go code that never blocks (which may swap in the rest with Proc.Then)
//     to run on its behalf, so it is resumed once, when the program is over.
//     Env.GoCont starts a process with no coroutine, whose calls keep
//     swapping in its program until it runs dry; it is never switched to.
//   - Resource is a FIFO server with fixed capacity (a queueing station).
//   - Store is a FIFO buffer of items with blocking Get.
//   - Signal is a one-shot broadcast event.
//
// Events scheduled for the same instant fire in scheduling order (a strict
// sequence number breaks ties), so FIFO disciplines are exact, not
// probabilistic.
//
// Building the package needs a Go >= 1.23 toolchain (package iter); go.mod
// stays at go 1.22 to match bench/go.mod, and proc.go, the one file that
// imports iter, carries the build constraint. DESIGN.md §17 describes the
// kernel's mechanism and invariants.
package sim
