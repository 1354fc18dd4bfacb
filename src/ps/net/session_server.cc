#include "ps/net/session_server.h"

#include <system_error>
#include <utility>

#include "obs/clock.h"

namespace mamdr {
namespace ps {
namespace net {

namespace cnet = ::mamdr::net;

Status SessionServer::Start(int port, ServeFn serve) {
  if (running()) return Status::FailedPrecondition("already running");
  MAMDR_RETURN_IF_ERROR(listener_.Bind(port));
  serve_ = std::move(serve);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SessionServer::Stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  listener_.Wake();  // pops PollAccept(-1) immediately
  if (accept_thread_.joinable()) accept_thread_.join();
  // No session is added from here on. Cut every live one so a thread
  // blocked in recv/send returns now, not at its read deadline; each
  // thread then closes its own fds under the lock.
  std::vector<std::unique_ptr<Session>> live;
  {
    MutexLock lock(&mu_);
    for (const std::unique_ptr<Session>& s : sessions_) {
      cnet::ShutdownFd(s->peer_.get());
      cnet::ShutdownFd(s->upstream_.get());
    }
    live.swap(sessions_);
  }
  for (std::unique_ptr<Session>& s : live) {
    if (s->thread_.joinable()) s->thread_.join();
  }
  listener_.Close();
  running_.store(false, std::memory_order_release);
}

void SessionServer::SetUpstream(Session* s, cnet::ScopedFd fd) {
  MutexLock lock(&mu_);
  s->upstream_ = std::move(fd);
}

void SessionServer::AcceptLoop() {
  for (;;) {
    const Result<int> accepted = listener_.PollAccept(/*timeout_ms=*/-1);
    if (stopping_.load(std::memory_order_acquire)) {
      if (accepted.ok() && accepted.value() >= 0) {
        cnet::ScopedFd drop(accepted.value());
      }
      return;
    }
    if (!accepted.ok()) return;  // listener broken; Stop() still joins
    if (accepted.value() < 0) continue;
    ReapFinished();
    auto owned = std::make_unique<Session>();
    Session* s = owned.get();
    s->accept_us_ = obs::MonotonicMicros();
    {
      MutexLock lock(&mu_);
      s->peer_.reset(accepted.value());
      sessions_.push_back(std::move(owned));
    }
    try {
      s->thread_ = std::thread([this, s] {
        serve_(s);
        Close(s);
      });
    } catch (const std::system_error&) {
      // Out of threads: drop this connection (its client sees it closed
      // and retries) rather than end the accept loop.
      Close(s);
    }
  }
}

void SessionServer::Close(Session* s) {
  {
    MutexLock lock(&mu_);
    s->peer_.reset();
    s->upstream_.reset();
  }
  s->done_.store(true, std::memory_order_release);
}

void SessionServer::ReapFinished() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    MutexLock lock(&mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done_.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::unique_ptr<Session>& s : finished) {
    if (s->thread_.joinable()) s->thread_.join();
  }
}

}  // namespace net
}  // namespace ps
}  // namespace mamdr
