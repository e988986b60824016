// Per-connection output batching for the net loops.
//
// The old hot path issued one ::send() per encoded message: a dispatcher
// fanning a query out to k servers, or a task server acking a burst of
// completions, paid one syscall (plus one heap-allocated vector) per frame.
// SendQueue removes both costs:
//
//   * frames are *coalesced* — encode_into() appends each frame to the
//     current chunk, so a burst of small frames shares one contiguous
//     buffer (bounded by kChunkBytes so a huge backlog still flushes in
//     slices and memory stays proportional to what is actually queued);
//   * chunks are *recycled* — drained buffers drop into a small freelist
//     and are reused with their capacity intact, so steady-state traffic
//     allocates nothing;
//   * flush() gathers every pending chunk into one writev-style
//     sendmsg(MSG_NOSIGNAL), so an arbitrarily long backlog costs one
//     syscall per readiness event instead of one per message.
//
// Single-threaded like the rest of a connection's state: the owner
// serialises access under its loop mutex. Whichever thread queues frames
// flushes them while it holds that mutex (a dispatcher's submitting thread,
// a daemon's executor, or the net loop for frames it encodes itself); the
// net loop takes over only after kBlocked (it waits for POLLOUT) or kError
// (it tears the connection down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace tailguard::net {

class SendQueue {
 public:
  enum class FlushResult {
    kDrained,  ///< everything pending hit the socket
    kBlocked,  ///< partial write: socket buffer full, poll for POLLOUT
    kError,    ///< unrecoverable socket error: close the connection
  };

  /// Buffer to append the next frame to (the active coalescing chunk).
  /// Intended use: `encode_into(msg, q.chunk());`. The reference is
  /// invalidated by the next chunk()/flush()/clear() call.
  std::vector<std::uint8_t>& chunk();

  bool empty() const { return chunks_.empty(); }

  /// Bytes queued but not yet written to the socket.
  std::size_t bytes_pending() const;

  /// Writes as much pending data as the socket accepts, all chunks gathered
  /// into single sendmsg calls. Retries EINTR internally.
  FlushResult flush(int fd);

  /// Drops all pending data (connection teardown).
  void clear();

 private:
  /// Soft cap per chunk: a chunk at or beyond this size stops accepting new
  /// frames. Big enough that a typical fan-out burst coalesces into one
  /// buffer, small enough that recycled capacity stays cheap.
  static constexpr std::size_t kChunkBytes = 32 * 1024;
  static constexpr std::size_t kMaxPooled = 4;

  std::deque<std::vector<std::uint8_t>> chunks_;
  std::size_t head_sent_ = 0;  ///< bytes of chunks_.front() already written
  std::vector<std::vector<std::uint8_t>> pool_;
};

}  // namespace tailguard::net
