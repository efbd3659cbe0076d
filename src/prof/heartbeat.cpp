#include "prof/heartbeat.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "prof/profiler.hpp"

namespace comet::prof {
namespace {

std::string format_count(std::uint64_t n) {
  char buffer[32];
  if (n >= 10'000'000) {
    std::snprintf(buffer, sizeof buffer, "%.1fM",
                  static_cast<double>(n) / 1e6);
  } else if (n >= 10'000) {
    std::snprintf(buffer, sizeof buffer, "%.1fk",
                  static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buffer, sizeof buffer, "%llu",
                  static_cast<unsigned long long>(n));
  }
  return buffer;
}

std::string format_rate(double per_s) {
  char buffer[32];
  if (per_s >= 1e6) {
    std::snprintf(buffer, sizeof buffer, "%.2fM", per_s / 1e6);
  } else if (per_s >= 1e3) {
    std::snprintf(buffer, sizeof buffer, "%.1fk", per_s / 1e3);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.0f", per_s);
  }
  return buffer;
}

std::string format_eta(double seconds) {
  char buffer[32];
  if (seconds >= 3600.0) {
    std::snprintf(buffer, sizeof buffer, "%.1fh", seconds / 3600.0);
  } else if (seconds >= 60.0) {
    std::snprintf(buffer, sizeof buffer, "%.1fm", seconds / 60.0);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.1fs", seconds);
  }
  return buffer;
}

}  // namespace

struct Heartbeat::Impl {
  explicit Impl(std::ostream& stream) : out(stream) {}

  std::ostream& out;
  std::vector<const Profiler*> profilers;
  std::uint64_t total = 0;

  std::mutex mutex;
  std::condition_variable wake;
  bool stopping = false;
  std::thread thread;

  std::chrono::steady_clock::time_point started;
  std::chrono::steady_clock::time_point last_tick;
  std::uint64_t last_done = 0;
  std::size_t last_width = 0;

  std::uint64_t done() const {
    std::uint64_t sum = 0;
    for (const Profiler* profiler : profilers) {
      if (profiler) sum += profiler->progress();
    }
    return sum;
  }

  void print_line(bool final) {
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t completed = done();
    const double elapsed =
        std::chrono::duration<double>(now - started).count();
    const double tick =
        std::chrono::duration<double>(now - last_tick).count();

    const double avg_rate =
        elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
    const double inst_rate =
        tick > 0.0 ? static_cast<double>(completed - last_done) / tick
                   : avg_rate;
    last_tick = now;
    last_done = completed;

    std::string line = "[comet] ";
    line += format_count(completed);
    if (total > 0) {
      line += '/';
      line += format_count(total);
      char pct[16];
      std::snprintf(pct, sizeof pct, " (%.1f%%)",
                    100.0 * static_cast<double>(completed) /
                        static_cast<double>(total));
      line += pct;
    }
    line += " req  ";
    line += format_rate(inst_rate);
    line += " req/s (avg ";
    line += format_rate(avg_rate);
    line += ")";
    if (total > 0 && avg_rate > 0.0 && completed < total) {
      line += "  ETA ";
      line += format_eta(static_cast<double>(total - completed) / avg_rate);
    }
    char rss[32];
    std::snprintf(rss, sizeof rss, "  RSS %.0f MiB",
                  static_cast<double>(current_rss_bytes()) / (1024.0 * 1024.0));
    line += rss;

    // Pad over the previous line's tail before the carriage return so a
    // shrinking line leaves no stale characters.
    std::string padded = line;
    if (padded.size() < last_width) {
      padded.append(last_width - padded.size(), ' ');
    }
    last_width = line.size();
    out << '\r' << padded;
    if (final) out << '\n';
    out.flush();
  }

  void run(std::uint64_t interval_ms) {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      wake.wait_for(lock, std::chrono::milliseconds(interval_ms),
                    [this] { return stopping; });
      if (stopping) break;
      print_line(false);
    }
  }
};

Heartbeat::Heartbeat(std::ostream& out, std::uint64_t interval_ms,
                     std::vector<const Profiler*> profilers,
                     std::uint64_t total_requests)
    : impl_(std::make_unique<Impl>(out)) {
  impl_->profilers = std::move(profilers);
  impl_->total = total_requests;
  impl_->started = std::chrono::steady_clock::now();
  impl_->last_tick = impl_->started;
  impl_->thread = std::thread(
      [impl = impl_.get(), interval_ms] { impl->run(interval_ms); });
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::stop() {
  if (!impl_ || !impl_->thread.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  impl_->thread.join();
  impl_->print_line(true);
}

}  // namespace comet::prof
