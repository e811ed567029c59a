//go:build unix

package store

import (
	"os"
	"syscall"
)

// openRead opens path for reading and returns it with its size. The
// store only preads its files, so it opens them with one open(2) and
// sizes them with one fstat(2); os.NewFile's one fcntl(2) finds the
// descriptor blocking and leaves it off the runtime's poller. On Linux
// os.Open would toggle O_NONBLOCK around a poller registration that a
// regular file refuses: five system calls that buy nothing.
func openRead(path string) (*os.File, int64, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, 0, &os.PathError{Op: "open", Path: path, Err: err}
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		syscall.Close(fd)
		return nil, 0, &os.PathError{Op: "stat", Path: path, Err: err}
	}
	return os.NewFile(uintptr(fd), path), st.Size, nil
}
