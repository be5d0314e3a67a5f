#include "trace/source.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

#include "support/error.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "trace/mctb.hpp"
#include "trace/reader.hpp"

namespace ac::trace {

namespace {

/// Read-only mmap of a whole file; falls back to a heap copy when mapping is
/// unavailable (empty file, non-regular file, exotic filesystem). Either way
/// view() is valid until destruction; the parse interns every name into the
/// buffer's pool, so the mapping is dropped as soon as parsing finishes.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw Error("cannot open file: " + path);
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
      void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ, MAP_PRIVATE, fd, 0);
      if (p != MAP_FAILED) {
        map_ = p;
        size_ = static_cast<std::size_t>(st.st_size);
      }
    }
    ::close(fd);
    if (!map_) fallback_ = read_file_bytes(path);
  }
  ~MappedFile() {
    if (map_) ::munmap(map_, size_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view view() const {
    return map_ ? std::string_view(static_cast<const char*>(map_), size_)
                : std::string_view(fallback_);
  }

  /// Drop the resident pages of a consumed byte range (best effort; no-op on
  /// the heap fallback). The parse never revisits consumed input, so peak RSS
  /// stays at representation + one in-flight segment instead of + whole file.
  void release(std::size_t begin, std::size_t end) const {
    if (!map_) return;
    const std::size_t page = 4096;
    const std::size_t b = (begin + page - 1) & ~(page - 1);
    const std::size_t e = end & ~(page - 1);
    if (e > b) {
      ::madvise(static_cast<char*>(map_) + b, e - b, MADV_DONTNEED);
    }
  }

 private:
  void* map_ = nullptr;
  std::size_t size_ = 0;
  std::string fallback_;
};

}  // namespace

FileSource::FileSource(std::string path, int read_threads)
    : path_(std::move(path)), read_threads_(read_threads) {}

const TraceBuffer& FileSource::buffer() {
  if (loaded_) return buffer_;
  AC_SPAN("parse.file");
  WallTimer timer;
  const MappedFile file(path_);
  // ParseProgress drives two things: mmap page release of consumed input, and
  // the `parse.bytes_consumed` gauge so a long read is observable in flight.
  // set_max because the MCTB parallel decode reports chunks out of order.
  const ParseProgress release = [&file](std::size_t begin, std::size_t end) {
    file.release(begin, end);
    static auto& consumed = telemetry::metrics().gauge("parse.bytes_consumed");
    consumed.set_max(static_cast<std::int64_t>(end));
  };
  if (is_mctb(file.view())) {
    // Binary container: a validated chunked read instead of text decoding,
    // with consumed payload pages released behind the in-order frontier
    // exactly like the text path.
    buffer_ = read_mctb(file.view(), read_threads_ > 1 ? read_threads_ : 1, release);
    format_ = "mctb";
  } else {
    buffer_ = read_threads_ > 1 ? read_trace_buffer_parallel(file.view(), read_threads_, release)
                                : read_trace_buffer(file.view(), release);
    format_ = "text";
  }
  read_seconds_ = timer.seconds();
  loaded_ = true;
  return buffer_;
}

const TraceBuffer& LiveSource::buffer() {
  throw Error("LiveSource: a live trace stream cannot be materialized; "
              "use for_each() (the Session runs its two-pass pipeline)");
}

void LiveSource::for_each(const std::function<void(const TraceRecord&)>& fn) {
  WallTimer timer;
  CallbackSink sink(fn);
  gen_(sink);
  pass_seconds_ = timer.seconds();
  pass_records_ = sink.count();
}

}  // namespace ac::trace
