// Status-returning POSIX file helpers for the storage layer: whole-file
// reads, the crash-safe atomic write protocol (temp file in the target
// directory -> fsync -> rename -> fsync directory), and the directory
// operations generation management needs. No exceptions, no aborts: every
// syscall failure surfaces as a Status (kNotFound for missing paths,
// kInternal for other OS errors), so a full disk or yanked mount degrades
// into an error the caller can recover from.
#ifndef TIEBREAK_UTIL_FILE_IO_H_
#define TIEBREAK_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace tiebreak {

/// Reads the whole file into a string, straight into the result buffer
/// (sized from fstat; no bounce copy). kNotFound when the path does not
/// exist; kInternal on other I/O errors.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `bytes` to `path` crash-safely: the data lands in a temporary
/// file in the same directory, is fsync'd, renamed over `path`, and the
/// directory is fsync'd — after a crash at any point, `path` holds either
/// the complete old content or the complete new content, never a torn mix.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// Plain write + fsync (no rename). Used inside a staging directory whose
/// atomic publish happens at the directory level.
Status WriteFileDurable(const std::string& path, std::string_view bytes);

/// Creates a directory (parents must exist). OK if it already exists.
Status CreateDir(const std::string& path);

/// Atomically renames `from` to `to` and fsyncs the parent directory of
/// `to` so the rename itself survives a crash.
Status RenameDurable(const std::string& from, const std::string& to);

/// Names (not paths) of the entries in `path`, excluding "." and "..",
/// sorted ascending.
Result<std::vector<std::string>> ListDir(const std::string& path);

/// True iff `path` exists (any file type).
bool PathExists(const std::string& path);

/// Size in bytes of a regular file.
Result<int64_t> FileSize(const std::string& path);

/// Recursively deletes `path` (file or directory tree). OK when the path
/// is already gone — crash-leftover cleanup calls this unconditionally.
Status RemoveAll(const std::string& path);

}  // namespace tiebreak

#endif  // TIEBREAK_UTIL_FILE_IO_H_
