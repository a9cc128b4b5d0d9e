// Command affinitybench is the repository's benchmark. It runs named
// workloads through the program's public APIs, checks their outputs,
// and prints one line per metric — "workload metric value unit n=N" —
// followed by a one-object JSON summary.
//
// Usage:
//
//	affinitybench [-workload all|soak|soak-elastic|svc-hop|svc-16k] [-seed 2012]
//	              [-reps N] [-trace 0|1] [-out result.json]
//	affinitybench -compare base.json new.json
//
// See benchmark/README.md for the workloads and metrics.
package main

import "os"

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}
