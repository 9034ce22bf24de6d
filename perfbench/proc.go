package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a daemon the benchmark started: the program under test.
type child struct {
	cmd  *exec.Cmd
	addr string // host:port the daemon announced
	log  *os.File
	done chan struct{}
	err  error
}

// announceRE finds the listen address a daemon prints when it is ready.
var announceRE = regexp.MustCompile(`http://([0-9.]+:[0-9]+)`)

// startChild runs bin with args and waits for it to announce its address
// on standard output. Its output goes to logPath.
func startChild(ctx context.Context, logPath, bin string, args ...string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = log
	out, err := cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	c := &child{cmd: cmd, log: log, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fmt.Fprintln(log, sc.Text())
			if m := announceRE.FindStringSubmatch(sc.Text()); m != nil && c.addr == "" {
				c.addr = m[1]
				addrc <- m[1]
			}
		}
		io.Copy(log, out) // drain whatever the scanner could not take
		c.err = cmd.Wait()
		close(c.done)
	}()
	select {
	case <-addrc:
		return c, nil
	case <-c.done:
		log.Close()
		return nil, fmt.Errorf("%s exited before announcing its address: %v (log %s)", bin, c.err, logPath)
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	c.stop()
	return nil, fmt.Errorf("%s did not announce its address (log %s)", bin, logPath)
}

// stop sends SIGTERM, waits for the daemon to exit (killing it after 20 s)
// and returns its exit error.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
	return c.err
}

// url returns the daemon's base URL.
func (c *child) url() string { return "http://" + c.addr }

// cpu returns the daemon's user plus system CPU time so far.
func (c *child) cpu() (time.Duration, error) { return procCPU(c.cmd.Process.Pid) }

// procCPU reads utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime 14 and stime 15.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	// The kernel reports clock ticks of 1/100 s (USER_HZ).
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// getOK fetches url and returns the body of a 200 response.
func getOK(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}
