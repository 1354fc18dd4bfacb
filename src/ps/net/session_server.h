// A loopback listener that serves each accepted connection on its own
// thread, until the session ends.
//
// ShardServer and FaultProxy both serve connections this way. One accept
// thread blocks in PollAccept (woken by the listener's self-pipe at Stop —
// no poll churn) and starts a session thread per connection; finished
// sessions are reaped at the next accept. Stop() cuts every live
// connection so blocked I/O returns, then joins every session thread.
//
// Fd rule: a session's fds are closed only under the session lock
// (`ps.net.sessions`, a leaf: held for list edits and fd shutdown/close,
// never across session I/O or a join), so Stop() can never cut a recycled
// fd number that another part of the process just opened.
#ifndef MAMDR_PS_NET_SESSION_SERVER_H_
#define MAMDR_PS_NET_SESSION_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/net.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace mamdr {
namespace ps {
namespace net {

class SessionServer {
 public:
  /// One live connection: the accepted peer fd, an optional upstream fd
  /// the session dials itself (FaultProxy's relay hop), and its thread.
  class Session {
   public:
    int peer() const { return peer_.get(); }
    int upstream() const { return upstream_.get(); }
    /// obs::MonotonicMicros() when the connection was accepted.
    int64_t accept_us() const { return accept_us_; }

   private:
    friend class SessionServer;
    std::thread thread_;
    ::mamdr::net::ScopedFd peer_;
    ::mamdr::net::ScopedFd upstream_;
    int64_t accept_us_ = 0;
    std::atomic<bool> done_{false};
  };
  using ServeFn = std::function<void(Session*)>;

  SessionServer() = default;
  ~SessionServer() { Stop(); }

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start accepting. Each
  /// connection runs `serve` on its own thread; its fds close after.
  Status Start(int port, ServeFn serve) MAMDR_EXCLUDES(mu_);

  /// Stop accepting, cut every live session, join it. Idempotent.
  void Stop() MAMDR_EXCLUDES(mu_);

  /// Give `s` an upstream fd that closes with the session. Called from
  /// the session's own thread.
  void SetUpstream(Session* s, ::mamdr::net::ScopedFd fd)
      MAMDR_EXCLUDES(mu_);

  /// The bound port; 0 when stopped.
  int port() const { return listener_.port(); }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void AcceptLoop() MAMDR_EXCLUDES(mu_);
  /// Close `s`'s fds under the lock and mark it finished.
  void Close(Session* s) MAMDR_EXCLUDES(mu_);
  /// Join and drop every finished session (accept thread only).
  void ReapFinished() MAMDR_EXCLUDES(mu_);

  ServeFn serve_;
  ::mamdr::net::Listener listener_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  Mutex mu_{MAMDR_LOCK_CLASS("ps.net.sessions")};
  std::vector<std::unique_ptr<Session>> sessions_ MAMDR_GUARDED_BY(mu_);

  std::thread accept_thread_;  // uses everything above
};

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_SESSION_SERVER_H_
