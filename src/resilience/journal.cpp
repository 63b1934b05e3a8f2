#include "resilience/journal.hpp"

#include <stdexcept>
#include <utility>

#include "obs/atomic_write.hpp"

namespace simsweep::resilience {

JournalWriter::JournalWriter(std::string path) : path_(std::move(path)) {}

void JournalWriter::append(std::string line, bool flush_now) {
  if (line.find('\n') != std::string::npos)
    throw std::invalid_argument("journal: record must be a single line");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(std::move(line));
  }
  if (flush_now) flush();
}

void JournalWriter::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string payload;
  for (const std::string& line : lines_) {
    payload += line;
    payload += '\n';
  }
  obs::atomic_write_file(path_, payload);
}

std::size_t JournalWriter::record_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

}  // namespace simsweep::resilience
