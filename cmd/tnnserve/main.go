// Command tnnserve puts a TNN broadcast service on a real wire: it builds
// the two-channel (or single multiplexed) broadcast program for a pair of
// synthetic datasets and replays it onto sockets — one frame per slot per
// channel, paced by -slot, looping indefinitely. Clients connect with
// tnnbcast.Connect (or tnnquery -connect) and run any TNN algorithm
// against the live packets.
//
// The -loss / -corrupt flags inject the deterministic fault model into the
// transmissions, so a lossy wire service is reproducible and comparable
// against the equivalent in-process simulation.
//
// Usage:
//
//	tnnserve -addr :7311 -s 10000 -r 10000
//	tnnserve -addr 127.0.0.1:0 -s 2000 -r 2000 -slot 1ms -scheme distributed
//	tnnserve -addr :7311 -loss 0.05 -faultseed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"tnnbcast"
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/netfeed"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7311", "TCP listen address (port 0 picks an ephemeral port)")
		sizeS     = flag.Int("s", 10000, "size of dataset S")
		sizeR     = flag.Int("r", 10000, "size of dataset R")
		seed      = flag.Int64("seed", 1, "random seed (datasets and channel phases)")
		pageCap   = flag.Int("page", 64, "page capacity in bytes")
		dataSize  = flag.Int("data", 1024, "data object size in bytes")
		slotDur   = flag.Duration("slot", netfeed.DefaultSlotDur, "real-time duration of one broadcast slot")
		scheme    = flag.String("scheme", "preorder", "air-index scheme: preorder | distributed")
		single    = flag.Bool("single", false, "multiplex both datasets on one physical channel")
		loss      = flag.Float64("loss", 0, "injected page loss probability in [0,1)")
		corrupt   = flag.Float64("corrupt", 0, "injected page corruption probability in [0,1)")
		faultSeed = flag.Uint64("faultseed", 1, "fault pattern seed (with -loss / -corrupt)")
		restart   = flag.Bool("restartable", false, "mark the shutdown GOODBYE with a restart hint so clients reconnect instead of failing terminally")
	)
	flag.Parse()
	if *sizeS < 0 || *sizeR < 0 {
		fmt.Fprintf(os.Stderr, "tnnserve: dataset sizes must be >= 0, got -s %d -r %d\n", *sizeS, *sizeR)
		os.Exit(2)
	}
	if *slotDur <= 0 {
		fmt.Fprintf(os.Stderr, "tnnserve: slot duration must be positive, got -slot %v\n", *slotDur)
		os.Exit(2)
	}

	params := broadcast.DefaultParams()
	params.PageCap = *pageCap
	params.DataSize = *dataSize
	spec := netfeed.Spec{
		Params: params,
		Single: *single,
		OffS:   *seed * 7919,
		OffR:   *seed * 104729,
		Region: tnnbcast.PaperRegion,
		S:      tnnbcast.UniformDataset(*seed+1, *sizeS, tnnbcast.PaperRegion),
		R:      tnnbcast.UniformDataset(*seed+2, *sizeR, tnnbcast.PaperRegion),
	}
	var err error
	if spec.Scheme, err = broadcast.ParseScheme(*scheme); err != nil {
		fmt.Fprintln(os.Stderr, "tnnserve:", err)
		os.Exit(2)
	}

	srv, err := netfeed.NewServer(netfeed.ServerConfig{
		Spec:        spec,
		SlotDur:     *slotDur,
		Faults:      broadcast.FaultModel{Loss: *loss, Corrupt: *corrupt, Seed: *faultSeed},
		RestartHint: *restart,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnnserve:", err)
		os.Exit(2)
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "tnnserve:", err)
		os.Exit(1)
	}
	fmt.Printf("tnnserve: broadcasting on %s (%s per slot, scheme %s, |S|=%d |R|=%d)\n",
		srv.Addr(), *slotDur, *scheme, *sizeS, *sizeR)
	if *loss > 0 || *corrupt > 0 {
		fmt.Printf("tnnserve: injecting loss=%.3f corrupt=%.3f seed=%d\n", *loss, *corrupt, *faultSeed)
	}

	// First signal: graceful drain — finish the slot on air, tell every
	// client GOODBYE (with the restart hint under -restartable), flush,
	// close. A second signal force-exits a drain that cannot complete.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if *restart {
		fmt.Println("tnnserve: draining (clients told to reconnect)")
	} else {
		fmt.Println("tnnserve: draining (clients told the broadcast is over)")
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
		fmt.Println("tnnserve: drained")
	case <-sig:
		fmt.Fprintln(os.Stderr, "tnnserve: second signal, aborting drain")
		os.Exit(1)
	}
}
