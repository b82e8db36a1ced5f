//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

const tmpfsMagic = 0x01021994

// memFile creates an anonymous tmpfs file (memfd_create). Replica logs
// live in such files: fsync on tmpfs costs well under a microsecond, so
// the device is modelled by shard.Config.DeviceLatency alone instead of
// by the host disk, and the benchmark writes nothing to any file system.
// It fails unless the file really is on tmpfs.
func memFile(name string) (*os.File, error) {
	var nr uintptr
	switch runtime.GOARCH {
	case "amd64":
		nr = 319
	case "arm64":
		nr = 279
	default:
		return nil, fmt.Errorf("memfd_create: unsupported on linux/%s", runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("memfd_create: %w", errno)
	}
	f := os.NewFile(fd, name)
	var st syscall.Statfs_t
	if err := syscall.Fstatfs(int(fd), &st); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("statfs %s: %w", name, err)
	}
	if st.Type != tmpfsMagic {
		_ = f.Close()
		return nil, fmt.Errorf("storage file %s is not on tmpfs (fs type %#x)", name, st.Type)
	}
	return f, nil
}

// memPath names f so that it can be opened again by path.
func memPath(f *os.File) string { return fmt.Sprintf("/proc/self/fd/%d", f.Fd()) }
