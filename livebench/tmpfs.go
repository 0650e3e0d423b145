package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"syscall"
)

// The databases live on a tmpfs, so that the commit path's fsyncs run but
// the device does not set the numbers: on a shared disk fsync latency
// drifts by 2x within minutes. The tmpfs is mounted over dbDir inside the
// checkout, in a private mount namespace of a child process: it is gone
// when the child exits, and nothing outside the checkout is touched.

// nsEnv marks the child that runs inside the private namespace.
const nsEnv = "LIVEBENCH_PRIVATE_TMPFS"

// runInNamespace runs this command again in a new user and mount
// namespace and returns its exit code. ok is false when the namespace
// cannot be made; the caller then runs the benchmark itself.
func runInNamespace() (code int, ok bool) {
	exe, err := os.Executable()
	if err != nil {
		return 0, false
	}
	cmd := exec.Command(exe, os.Args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.Env = append(os.Environ(), nsEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Cloneflags:                 syscall.CLONE_NEWUSER | syscall.CLONE_NEWNS,
		UidMappings:                []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getuid(), Size: 1}},
		GidMappings:                []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getgid(), Size: 1}},
		GidMappingsEnableSetgroups: false,
		Pdeathsig:                  syscall.SIGKILL,
	}
	// Pdeathsig fires when the thread that started the child exits, so
	// that thread must outlive it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "livebench: no private mount namespace (%v); the databases stay on the checkout's disk\n", err)
		return 0, false
	}
	// Pass interrupts on, so the child stops and is waited for.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		for sig := range sigs {
			cmd.Process.Signal(sig)
		}
	}()
	err = cmd.Wait()
	signal.Stop(sigs)
	close(sigs)
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, true
	case errors.As(err, &exit) && exit.ExitCode() >= 0:
		return exit.ExitCode(), true
	}
	fmt.Fprintln(os.Stderr, "livebench:", err)
	return 1, true
}

// mountTmpfs mounts a private tmpfs over dir. It must run inside the
// child's namespace; the mount is made private first so that it does not
// propagate to the parent's namespace.
func mountTmpfs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := syscall.Mount("", "/", "", syscall.MS_REC|syscall.MS_PRIVATE, ""); err != nil {
		return fmt.Errorf("make mounts private: %w", err)
	}
	if err := syscall.Mount("livebench", dir, "tmpfs", syscall.MS_NOSUID|syscall.MS_NODEV, "size=2g,mode=0755"); err != nil {
		return fmt.Errorf("mount tmpfs on %s: %w", dir, err)
	}
	return nil
}
