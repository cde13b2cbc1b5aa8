// Package azurebench is an open-source reproduction of "AzureBench:
// Benchmarking the Storage Services of the Azure Cloud Platform" (Agarwal
// & Prasad, IPDPS Workshops 2012) as a self-contained Go system: the three
// Azure storage engines (Blob, Queue, Table), a discrete-event simulated
// datacenter with the documented scalability targets, the paper's
// worker-role application framework, the benchmark suite regenerating
// every table and figure, an Azurite-style REST emulator with a Go client
// SDK, and example applications.
//
// Entry points:
//
//   - cmd/azurebench — regenerate the paper's tables and figures, and run
//     declarative scenarios on the simulated cloud or (-live URL) against
//     a live emulator
//   - cmd/azurestore — serve the storage emulator over HTTP
//   - examples/      — quickstart and domain applications
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package azurebench

// Version identifies the reproduction release.
const Version = "1.0.0"
