#include "src/util/time.h"

#include <cstdio>

namespace spotcache {

std::string ToString(Duration d) {
  char buf[64];
  const double s = d.seconds();
  if (s < 0) {
    std::string negated = "-";
    negated += ToString(Duration::Micros(-d.micros()));
    return negated;
  }
  if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0fus", s * 1e6);
  } else if (s < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1fs", s);
  } else if (s < 7200.0) {
    std::snprintf(buf, sizeof(buf), "%dm%02ds", static_cast<int>(s) / 60,
                  static_cast<int>(s) % 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%dh%02dm", static_cast<int>(s) / 3600,
                  (static_cast<int>(s) % 3600) / 60);
  }
  return buf;
}

std::string ToString(SimTime t) {
  const int64_t total_s = t.micros() / 1'000'000;
  const int64_t days = total_s / 86400;
  const int64_t h = (total_s % 86400) / 3600;
  const int64_t m = (total_s % 3600) / 60;
  const int64_t s = total_s % 60;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "d%lld %02lld:%02lld:%02lld",
                static_cast<long long>(days), static_cast<long long>(h),
                static_cast<long long>(m), static_cast<long long>(s));
  return buf;
}

}  // namespace spotcache
