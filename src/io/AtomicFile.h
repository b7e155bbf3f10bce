//===- io/AtomicFile.h - Atomic whole-file replacement ----------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-safe report writing: a final artifact (the HTML report) is
/// written to "<path>.tmp", fsynced, and renamed over the destination. A
/// reader therefore only ever sees the old complete file or the new
/// complete file — an interrupted CLI can never leave a truncated report
/// behind.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_IO_ATOMICFILE_H
#define DJX_IO_ATOMICFILE_H

#include <string>

namespace djx {

/// Atomically replaces \p Path with \p Contents via write-to-temp +
/// fsync + rename. On failure the temp file is removed, \p Error (when
/// non-null) receives a description, and \p Path is left untouched.
bool writeFileAtomic(const std::string &Path, const std::string &Contents,
                     std::string *Error = nullptr);

} // namespace djx

#endif // DJX_IO_ATOMICFILE_H
