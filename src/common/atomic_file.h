// Crash-safe publication of a whole file, shared by the on-disk stores
// (viaarray/cache.h, viaarray/primitive_store.h, checkpoint/checkpoint.h).
//
// The new contents go to `<path>.tmp`, which is flushed, fsync'd and then
// renamed over `path`, after which the parent directory is fsync'd. A crash
// or a full disk at any point leaves either the previous file or the new
// one, never a mix, and a reader that opened the previous file keeps
// reading its complete contents (the rename swaps directory entries; it
// does not touch the open inode).
#pragma once

#include <functional>
#include <ostream>
#include <string>

namespace viaduct {

/// The temporary sibling a publish writes before the rename.
std::string atomicTempPath(const std::string& path);

/// Writes `path` through `write` as described above. Returns false, with
/// the temporary removed and any previous file at `path` untouched, if the
/// temporary cannot be created, written, flushed, fsync'd or renamed.
/// Callers that write the same path concurrently must serialize: they
/// share the one temporary.
bool publishFileAtomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write);

}  // namespace viaduct
