#include "util/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <utility>

namespace tiebreak {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path, int err) {
  const std::string msg = op + " " + path + ": " + std::strerror(err);
  if (err == ENOENT || err == ENOTDIR) return Status::NotFound(msg);
  return Status::Internal(msg);
}

// Directory part of `path` ("." when there is no slash).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir", dir, errno);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync dir", dir, err);
  return Status::Ok();
}

// Writes the concatenation of `pieces` to `fd` and fsyncs: writev takes
// at most IOV_MAX pieces per call, and a short write resumes inside the
// piece it stopped in.
Status WriteAndSync(int fd, const std::string& path,
                    Span<std::string_view> pieces) {
  std::vector<struct iovec> iov;
  iov.reserve(pieces.size());
  for (std::string_view piece : pieces) {
    if (piece.empty()) continue;
    iov.push_back({const_cast<char*>(piece.data()), piece.size()});
  }
  size_t next = 0;
  while (next < iov.size()) {
    const int count = static_cast<int>(
        std::min<size_t>(iov.size() - next, IOV_MAX));
    const ssize_t n = ::writev(fd, iov.data() + next, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path, errno);
    }
    if (n == 0) return Status::Internal("write " + path + ": no progress");
    size_t done = static_cast<size_t>(n);
    while (next < iov.size() && done >= iov[next].iov_len) {
      done -= iov[next].iov_len;
      ++next;
    }
    if (done > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + done;
      iov[next].iov_len -= done;
    }
  }
  if (::fsync(fd) != 0) return ErrnoStatus("fsync", path, errno);
  return Status::Ok();
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open", path, errno);
  std::string out;
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    out.resize(static_cast<size_t>(st.st_size));
  }
  // Read straight into the result at its stat'd size; then keep reading
  // through a small buffer in case the file is longer than fstat said (it
  // grew, or it is not a regular file).
  size_t got = 0;
  char buffer[1 << 16];
  while (true) {
    const bool in_place = got < out.size();
    char* dst = in_place ? out.data() + got : buffer;
    const size_t room = in_place ? out.size() - got : sizeof(buffer);
    const ssize_t n = ::read(fd, dst, room);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("read", path, err);
    }
    if (n == 0) break;
    if (in_place) {
      got += static_cast<size_t>(n);
    } else {
      out.append(buffer, static_cast<size_t>(n));
      got = out.size();
    }
  }
  ::close(fd);
  out.resize(got);  // a file that shrank since fstat
  return out;
}

ReadOnlyFile::ReadOnlyFile(int fd, uint64_t size, std::string path)
    : fd_(fd), size_(size), path_(std::move(path)) {}

ReadOnlyFile::ReadOnlyFile(ReadOnlyFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      path_(std::move(other.path_)) {}

ReadOnlyFile& ReadOnlyFile::operator=(ReadOnlyFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    size_ = other.size_;
    path_ = std::move(other.path_);
  }
  return *this;
}

ReadOnlyFile::~ReadOnlyFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<ReadOnlyFile> ReadOnlyFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path, errno);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("fstat", path, err);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::DataLoss(path + " is not a regular file");
  }
  return ReadOnlyFile(fd, static_cast<uint64_t>(st.st_size), path);
}

Status ReadOnlyFile::ReadAt(uint64_t offset, char* dst, size_t length) const {
  while (length > 0) {
    const ssize_t n = ::pread(fd_, dst, length, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", path_, errno);
    }
    if (n == 0) {
      return Status::DataLoss(path_ + " ends at byte " +
                              std::to_string(offset) + ", short of its " +
                              std::to_string(size_) + "-byte length");
    }
    dst += n;
    offset += static_cast<uint64_t>(n);
    length -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> ReadOnlyFile::ReadAll() const {
  std::string out(size_, '\0');
  Status s = ReadAt(0, out.data(), out.size());
  if (!s.ok()) return s;
  return out;
}

Status WriteFileDurable(const std::string& path,
                        Span<std::string_view> pieces) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", path, errno);
  Status s = WriteAndSync(fd, path, pieces);
  if (::close(fd) != 0 && s.ok()) s = ErrnoStatus("close", path, errno);
  if (!s.ok()) ::unlink(path.c_str());
  return s;
}

Status WriteFileDurable(const std::string& path, std::string_view bytes) {
  return WriteFileDurable(path, Span<std::string_view>(&bytes, 1));
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  return WriteFileAtomic(path, Span<std::string_view>(&bytes, 1));
}

Status WriteFileAtomic(const std::string& path,
                       Span<std::string_view> pieces) {
  // The temp file must live in the target directory: rename() is atomic
  // only within one filesystem, and the directory fsync below covers both
  // the unlink of the old name and the link of the new one.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  Status s = WriteFileDurable(tmp, pieces);
  if (!s.ok()) return s;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return ErrnoStatus("rename", path, err);
  }
  return SyncDir(DirName(path));
}

Status CreateDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir", path, errno);
  }
  return Status::Ok();
}

Status RenameDurable(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename", to, errno);
  }
  return SyncDir(DirName(to));
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return ErrnoStatus("opendir", path, errno);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::lstat(path.c_str(), &st) == 0;
}

Result<int64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return ErrnoStatus("stat", path, errno);
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::InvalidArgument("not a regular file: " + path);
  }
  return static_cast<int64_t>(st.st_size);
}

Status RemoveAll(const std::string& path) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::Ok();
    return ErrnoStatus("lstat", path, errno);
  }
  if (S_ISDIR(st.st_mode)) {
    Result<std::vector<std::string>> entries = ListDir(path);
    if (!entries.ok()) return entries.status();
    for (const std::string& name : *entries) {
      Status s = RemoveAll(path + "/" + name);
      if (!s.ok()) return s;
    }
    if (::rmdir(path.c_str()) != 0) {
      return ErrnoStatus("rmdir", path, errno);
    }
    return Status::Ok();
  }
  if (::unlink(path.c_str()) != 0) {
    return ErrnoStatus("unlink", path, errno);
  }
  return Status::Ok();
}

}  // namespace tiebreak
