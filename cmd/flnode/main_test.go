package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// buildFlnode compiles the binary under test once per test binary.
func buildFlnode(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "flnode")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func writeInstance(t *testing.T, inst *fl.Instance) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "instance.ufl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fl.Write(f, inst); err != nil {
		t.Fatal(err)
	}
	return path
}

// startGateway launches the gateway role and parses the bound address from
// its first output line.
func startGateway(t *testing.T, bin, instFile string, shards int) (*exec.Cmd, string, *bytes.Buffer, chan struct{}) {
	t.Helper()
	cmd := exec.Command(bin, "-role", "gateway", "-in", instFile, "-shards", fmt.Sprint(shards), "-k", "8")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	// Stderr gets its own buffer: sharing one with the drain goroutine
	// races against exec's internal ReadFrom copier and loses writes.
	var buf, ebuf bytes.Buffer
	cmd.Stderr = &ebuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		t.Fatalf("gateway produced no output (stderr: %s)", ebuf.String())
	}
	first := sc.Text()
	fields := strings.Fields(first)
	if len(fields) < 2 || fields[0] != "gateway" {
		cmd.Process.Kill()
		t.Fatalf("unexpected gateway banner %q", first)
	}
	// Drain the rest of stdout until EOF; tests wait on drained before
	// calling Wait so the buffer is complete (Wait closes the pipe).
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			buf.WriteString(sc.Text())
			buf.WriteByte('\n')
		}
	}()
	return cmd, fields[1], &buf, drained
}

func startShard(t *testing.T, bin, instFile, gwAddr string, id, shards int, delay string, extra ...string) *exec.Cmd {
	t.Helper()
	args := []string{"-role", "shard", "-id", fmt.Sprint(id), "-shards", fmt.Sprint(shards),
		"-gateway", gwAddr, "-in", instFile, "-k", "8", "-seed", "5", "-round-delay", delay}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestFleetMatchesInProcSolver is the acceptance criterion at full process
// separation: a fault-free loopback fleet must report exactly the
// in-process solver's cost on the same instance and seed.
func TestFleetMatchesInProcSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e is slow under -short")
	}
	bin := buildFlnode(t)
	inst, err := gen.Uniform{M: 8, NC: 30, Density: 0.5, MinDegree: 1}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Solve(inst, core.Config{K: 8}, core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	instFile := writeInstance(t, inst)
	const shards = 3
	gw, addr, out, drained := startGateway(t, bin, instFile, shards)
	defer gw.Process.Kill()
	var procs []*exec.Cmd
	for i := 0; i < shards; i++ {
		procs = append(procs, startShard(t, bin, instFile, addr, i, shards, "0s"))
	}
	defer func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}()
	<-drained
	if err := gw.Wait(); err != nil {
		t.Fatalf("gateway failed: %v\n%s", err, out.String())
	}
	text := out.String()
	wantLine := fmt.Sprintf("certified cost=%d open=%d", want.Cost(inst), want.OpenCount())
	if !strings.Contains(text, wantLine) {
		t.Fatalf("fleet diverged from in-proc solver: want %q in output:\n%s", wantLine, text)
	}
	if !strings.Contains(text, "dead_facilities=0 dead_clients=0 orphaned=0 unservable=0") {
		t.Fatalf("fault-free run reported exemptions:\n%s", text)
	}
}

// TestFleetSurvivesSigkill is the satellite e2e: one flnode is SIGKILLed
// mid-run; the survivors must terminate and the gateway must certify the
// partial solution with the victim's span reported dead/exempt.
func TestFleetSurvivesSigkill(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e is slow under -short")
	}
	bin := buildFlnode(t)
	inst, err := gen.Uniform{M: 12, NC: 40, Density: 0.6, MinDegree: 2}.Generate(17)
	if err != nil {
		t.Fatal(err)
	}
	instFile := writeInstance(t, inst)
	const shards = 3
	gw, addr, out, drained := startGateway(t, bin, instFile, shards)
	defer gw.Process.Kill()
	var procs []*exec.Cmd
	for i := 0; i < shards; i++ {
		procs = append(procs, startShard(t, bin, instFile, addr, i, shards, "20ms"))
	}
	defer func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}()
	// Let the run get under way, then kill shard 1 outright.
	time.Sleep(700 * time.Millisecond)
	if err := procs[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("sigkill: %v", err)
	}
	procs[1].Wait()
	<-drained
	if err := gw.Wait(); err != nil {
		t.Fatalf("gateway did not certify after the kill: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "shard 1: down") {
		t.Fatalf("gateway never reported the victim down:\n%s", text)
	}
	if !strings.Contains(text, "certified cost=") {
		t.Fatalf("no certified solution after the kill:\n%s", text)
	}
	// The victim's clients must surface as exemptions (dead with the
	// shard, orphaned, or unservable), never as silently dropped work.
	if strings.Contains(text, "dead_facilities=0 dead_clients=0 orphaned=0 unservable=0") {
		t.Fatalf("kill left no trace in the exemption accounting:\n%s", text)
	}
}

// TestFleetCheckpointRestart is the tentpole e2e: a checkpointing flnode is
// SIGKILLed mid-run, a fresh process is launched with -resume from its
// checkpoint file, and the fleet must finish with ZERO exemptions — the
// crash degraded to transient loss, not a masked span.
func TestFleetCheckpointRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e is slow under -short")
	}
	bin := buildFlnode(t)
	inst, err := gen.Uniform{M: 12, NC: 40, Density: 0.6, MinDegree: 2}.Generate(17)
	if err != nil {
		t.Fatal(err)
	}
	instFile := writeInstance(t, inst)
	ckptFile := filepath.Join(t.TempDir(), "shard1.ckpt")
	const shards = 3
	gw, addr, out, drained := startGateway(t, bin, instFile, shards)
	defer gw.Process.Kill()
	var procs []*exec.Cmd
	for i := 0; i < shards; i++ {
		extra := []string(nil)
		if i == 1 {
			extra = []string{"-checkpoint", ckptFile}
		}
		procs = append(procs, startShard(t, bin, instFile, addr, i, shards, "20ms", extra...))
	}
	defer func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}()
	// Let the run get under way and the victim write checkpoints, then
	// kill it outright and relaunch its successor from the image.
	time.Sleep(700 * time.Millisecond)
	if err := procs[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("sigkill: %v", err)
	}
	procs[1].Wait()
	if _, err := os.Stat(ckptFile); err != nil {
		t.Fatalf("victim left no checkpoint: %v", err)
	}
	procs[1] = startShard(t, bin, instFile, addr, 1, shards, "0s", "-checkpoint", ckptFile, "-resume")
	<-drained
	if err := gw.Wait(); err != nil {
		t.Fatalf("gateway did not certify after the restart: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "certified cost=") {
		t.Fatalf("no certified solution after the restart:\n%s", text)
	}
	if strings.Contains(text, "shard 1: down") {
		t.Fatalf("readmitted shard still reported down:\n%s", text)
	}
	// The whole point of the rung: the crash left no exemption behind.
	if !strings.Contains(text, "dead_facilities=0 dead_clients=0 orphaned=0 unservable=0") {
		t.Fatalf("restart did not erase the outage:\n%s", text)
	}
}

// TestShardPrintsChaosSeed: a shard whose -chaos spec names no seed draws
// one and prints it to stderr, so a failing run can be replayed with
// seed=N. The gateway here never answers, so the shard gives up once its
// HELLO exhausts the retry budget.
func TestShardPrintsChaosSeed(t *testing.T) {
	inst, err := gen.Uniform{M: 4, NC: 10, Density: 0.5, MinDegree: 1}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	var stdout, stderr bytes.Buffer
	err = run([]string{"-role", "shard", "-id", "0", "-shards", "2", "-gateway", silent.LocalAddr().String(),
		"-in", writeInstance(t, inst), "-chaos", "loss=0.5"}, nil, &stdout, &stderr)
	if err == nil {
		t.Fatal("shard joined a fleet whose gateway never answered")
	}
	m := regexp.MustCompile(`(?m)^chaos seed=(-?\d+)$`).FindStringSubmatch(stderr.String())
	if m == nil || m[1] == "0" {
		t.Fatalf("no drawn chaos seed on stderr:\n%s", stderr.String())
	}
}
