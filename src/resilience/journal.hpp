// Crash-consistent sweep journal: an append-only JSONL record of completed
// cells.
//
// The journal is the durability primitive behind `sweep --resume`: every
// completed cell appends one self-contained JSON line (cell digest, seed,
// outcome, serialized results), and the file is republished crash-
// consistently on every flush — the full contents are written to
// `<path>.tmp`, fsync'ed, and atomically renamed over `<path>`, so a reader
// only ever sees a complete journal from *some* prefix of the run, never a
// torn write.  SIGKILL at any instant loses at most the cells not yet
// flushed, and a resumed sweep replays the survivors byte-for-byte.
//
// The writer holds the lines in memory (a sweep journals one line per cell,
// hundreds at most) and is thread-safe: worker threads finishing cells call
// append() concurrently.  Record *content* is the caller's contract — the
// journal stores opaque single-line strings; the one reader is the typed
// journal loader (report::load_artifact).
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace simsweep::resilience {

class JournalWriter {
 public:
  /// Binds the writer to `path`.  Nothing is written until the first
  /// append/flush; an existing file is only replaced then.
  explicit JournalWriter(std::string path);

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one record (must be a single line — no '\n') and, by default,
  /// flushes the whole journal durably.  Throws std::runtime_error when the
  /// temp file cannot be written or renamed.
  void append(std::string line, bool flush_now = true);

  /// Durably republishes the journal: write <path>.tmp, fsync, rename over
  /// <path>, fsync the directory.
  void flush();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t record_count() const;

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

}  // namespace simsweep::resilience
