// Command vnros boots the simulated OS, runs a small multi-process
// demo workload against the spec-checked syscall contract, and prints
// the console transcript plus the self-derived Table 1/2 columns.
//
// The `stats` subcommand runs the same workload with the kernel
// observability subsystem (internal/obs) enabled and prints the
// collected kstats: counters, latency histograms, per-opcode syscall
// percentiles, and the tail of the kernel event trace.
package main

import (
	"flag"
	"fmt"
	"os"

	vnros "github.com/verified-os/vnros"
	"github.com/verified-os/vnros/internal/obs"
	"github.com/verified-os/vnros/internal/relwork"
	"github.com/verified-os/vnros/internal/sys"
)

func main() {
	cores := flag.Int("cores", 4, "simulated cores")
	shards := flag.Int("shards", 0, "kernel state-machine shards (0 = monolithic single-NR kernel)")
	tables := flag.Bool("tables", false, "print the paper's Tables 1 and 2 with the derived vnros column")
	flag.Parse()

	stats := false
	switch flag.Arg(0) {
	case "":
	case "stats":
		stats = true
	default:
		fmt.Fprintf(os.Stderr, "vnros: unknown subcommand %q (supported: stats)\n", flag.Arg(0))
		os.Exit(2)
	}

	if err := run(*cores, *shards, *tables, stats); err != nil {
		fmt.Fprintln(os.Stderr, "vnros:", err)
		os.Exit(1)
	}
}

func run(cores, shards int, tables, stats bool) error {
	if stats {
		// The demo workload is tiny; record every event rather than the
		// production sampled default.
		obs.SetSampleRate(1)
		obs.Enable()
	}
	system, err := vnros.Boot(vnros.Config{Cores: cores, Shards: shards})
	if err != nil {
		return err
	}
	initSys, err := system.Init()
	if err != nil {
		return err
	}
	if system.Sharded() {
		system.Printf("vnros: booted %d cores, %d kernel replicas, %d shards\n",
			cores, system.NumReplicas(), system.NumShards())
	} else {
		system.Printf("vnros: booted %d cores, %d kernel replicas\n", cores, system.NumReplicas())
	}

	if e := initSys.Mkdir("/home"); e != vnros.EOK {
		return fmt.Errorf("mkdir: %v", e)
	}

	// A writer and a reader process, plus a memory-mapper.
	done := make(chan error, 3)
	_, err = system.Run(initSys, "writer", func(p *vnros.Process) int {
		fd, e := p.Sys.Open("/home/journal", vnros.OCreate|vnros.ORdWr)
		if e != vnros.EOK {
			done <- fmt.Errorf("writer open: %v", e)
			return 1
		}
		for i := 0; i < 5; i++ {
			if _, e := p.Sys.Write(fd, []byte(fmt.Sprintf("entry %d\n", i))); e != vnros.EOK {
				done <- fmt.Errorf("writer write: %v", e)
				return 1
			}
		}
		system.Printf("writer(pid %d): 5 entries written\n", p.PID)
		done <- nil
		return 0
	})
	if err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}

	_, err = system.Run(initSys, "reader", func(p *vnros.Process) int {
		fd, e := p.Sys.Open("/home/journal", vnros.ORdOnly)
		if e != vnros.EOK {
			done <- fmt.Errorf("reader open: %v", e)
			return 1
		}
		buf := make([]byte, 256)
		n, e := p.Sys.Read(fd, buf)
		if e != vnros.EOK {
			done <- fmt.Errorf("reader read: %v", e)
			return 1
		}
		system.Printf("reader(pid %d): read %d bytes\n", p.PID, n)
		// The positioned read goes through the page cache: the first fills
		// the page, the second is a hit copied straight into buf.
		for i := 0; i < 2; i++ {
			if m, e := p.Sys.Pread(fd, buf, 0); e != vnros.EOK || m != n {
				done <- fmt.Errorf("reader pread: %d bytes, %v", m, e)
				return 1
			}
		}
		system.Printf("reader(pid %d): pread the same %d bytes twice (one fill, one cache hit)\n", p.PID, n)
		done <- nil
		return 0
	})
	if err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}

	_, err = system.Run(initSys, "mapper", func(p *vnros.Process) int {
		base, e := p.Sys.MMap(4 * vnros.PageSize)
		if e != vnros.EOK {
			done <- fmt.Errorf("mapper mmap: %v", e)
			return 1
		}
		if e := p.Sys.MemWrite(base, []byte("virtual memory works")); e != vnros.EOK {
			done <- fmt.Errorf("mapper write: %v", e)
			return 1
		}
		pa, e := p.Sys.MemResolve(base)
		if e != vnros.EOK {
			done <- fmt.Errorf("mapper resolve: %v", e)
			return 1
		}
		system.Printf("mapper(pid %d): va %#x -> pa %#x\n", p.PID, uint64(base), pa)
		_ = p.Sys.MUnmap(base)
		done <- nil
		return 0
	})
	if err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}

	system.WaitAll()
	for i := 0; i < 3; i++ {
		if _, e := initSys.Wait(); e != vnros.EOK {
			return fmt.Errorf("wait: %v", e)
		}
	}
	if err := initSys.ContractErr(); err != nil {
		return fmt.Errorf("contract violation: %w", err)
	}
	if err := system.CheckReplicaAgreement(); err != nil {
		return err
	}
	system.Printf("vnros: workload complete; contract held; replicas agree\n")

	fmt.Print(system.ConsoleOutput())

	if stats {
		snap := obs.TakeSnapshot()
		fmt.Println()
		fmt.Print(snap.RenderSummary())
		fmt.Println()
		fmt.Print(obs.RenderOps("syscall latency (dispatch boundary, once per call):",
			snap.Ops["syscall"], sys.OpName))
		fmt.Println()
		fmt.Print(obs.RenderOps(
			fmt.Sprintf("kernel applies (once per replica per op; %d replicas):", system.NumReplicas()),
			snap.Ops["kernel.apply"], sys.OpName))
		fmt.Println()
		if ops := snap.Ops["nr.shard.ops"]; len(ops) > 0 {
			fmt.Print(obs.RenderOps(
				fmt.Sprintf("per-shard dispatch (%d shards; proc* keyed by PID, fs* by inode):", system.NumShards()),
				ops, obs.ShardSlotName))
			fmt.Println()
		}
		fmt.Println("kernel trace (last 20 events):")
		fmt.Print(obs.RenderTrace(snap.Traces["kernel"], 20))
	}

	if tables {
		self := system.Components.Derive("vnros")
		fmt.Println()
		fmt.Print(relwork.RenderTable1(self))
		fmt.Println()
		fmt.Print(relwork.RenderTable2(self))
	}
	return nil
}
