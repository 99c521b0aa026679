package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes returns the peak resident set of the process so far.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// round is one timed phase (set-up, traffic, a block of traffic, a restore
// or a catch-up), with the host steal ticks that fell into it.
type round struct {
	wall  time.Duration
	steal int64
}

func (r round) String() string { return fmt.Sprintf("%.3fs", r.wall.Seconds()) }

// own is the round's wall time less the hypervisor's share of it: the
// steal time of the machine spread over its CPUs, which is what a closed
// loop with one request in flight loses on its critical path. Time the
// host gives to other guests is not the program's; without this a run that
// meets a burst of steal reads up to a third slow. The deduction is capped
// at half the round.
func (r round) own() time.Duration {
	stolen := time.Duration(r.steal) * time.Second / userHZ / time.Duration(machineCPUs)
	return max(r.wall-stolen, r.wall/2)
}

// ownShare is own()/wall: the share of the round the machine gave the
// program. Times measured inside the round (request latencies, CPU time,
// which on a guest without steal accounting runs on while the vCPU is
// stolen) are scaled by it too.
func (r round) ownShare() float64 {
	if r.wall <= 0 {
		return 1
	}
	return float64(r.own()) / float64(r.wall)
}

// userHZ is the unit of /proc/stat's times on Linux.
const userHZ = 100

// machineCPUs is the number of CPUs /proc/stat reports (falling back to
// the CPUs this process may use).
var machineCPUs = func() int {
	b, err := os.ReadFile("/proc/stat")
	n := 0
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if len(line) > 3 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
				n++
			}
		}
	}
	if n == 0 {
		n = runtime.NumCPU()
	}
	return n
}()

// stealTicks reads the host's cumulative steal time from /proc/stat (the
// eighth field of the aggregate cpu line), or 0 where it is unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src (one level deep, as a store
// directory is laid out) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	return errors.Join(err, out.Close())
}

// netCounter counts every byte the benchmark's HTTP client moves over its
// loopback connections, in both directions: request and status lines,
// headers and bodies.
type netCounter struct {
	bytes atomic.Int64
}

func (nc *netCounter) total() int64 { return nc.bytes.Load() }

func (nc *netCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, n: &nc.bytes}, nil
}

type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
