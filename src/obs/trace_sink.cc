#include "obs/trace_sink.hh"

#include "common/logging.hh"
#include "obs/json.hh"

namespace sdpcm {

// The escaping/number formatting lives in obs/json.hh so every JSON
// emitter (trace sink, epoch series, run reports) agrees on it.
using json::writeNumber;
using json::writeString;

ChromeTraceSink::ChromeTraceSink(const std::string& path)
    : owned_(path), os_(&owned_)
{
    if (!owned_)
        SDPCM_FATAL("cannot open trace file: ", path);
    *os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(&os)
{
    *os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

ChromeTraceSink::~ChromeTraceSink()
{
    close();
}

void
ChromeTraceSink::close()
{
    if (closed_)
        return;
    closed_ = true;
    *os_ << "\n]}\n";
    os_->flush();
}

void
ChromeTraceSink::flush()
{
    os_->flush();
}

void
ChromeTraceSink::openEvent(const char* ph, Tick ts)
{
    SDPCM_ASSERT(!closed_, "trace event after close");
    *os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    *os_ << "{\"ph\":\"" << ph << "\",\"pid\":0,\"ts\":" << ts;
}

void
ChromeTraceSink::writeArgs(std::initializer_list<TraceArg> args)
{
    if (args.size() == 0)
        return;
    *os_ << ",\"args\":{";
    bool first = true;
    for (const TraceArg& a : args) {
        if (!first)
            *os_ << ',';
        first = false;
        writeString(*os_, a.key);
        *os_ << ':';
        writeNumber(*os_, a.value);
    }
    *os_ << '}';
}

void
ChromeTraceSink::closeEvent()
{
    *os_ << '}';
}

void
ChromeTraceSink::threadName(unsigned tid, const std::string& name)
{
    openEvent("M", 0);
    *os_ << ",\"tid\":" << tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    writeString(*os_, name);
    *os_ << '}';
    closeEvent();
}

void
ChromeTraceSink::begin(unsigned tid, const char* name, const char* cat,
                       Tick ts, std::initializer_list<TraceArg> args)
{
    PROF_SCOPE(obs_.prof, TraceWrite);
    openEvent("B", ts);
    *os_ << ",\"tid\":" << tid << ",\"name\":";
    writeString(*os_, name);
    *os_ << ",\"cat\":";
    writeString(*os_, cat);
    writeArgs(args);
    closeEvent();
}

void
ChromeTraceSink::end(unsigned tid, Tick ts,
                     std::initializer_list<TraceArg> args)
{
    PROF_SCOPE(obs_.prof, TraceWrite);
    openEvent("E", ts);
    *os_ << ",\"tid\":" << tid;
    writeArgs(args);
    closeEvent();
}

void
ChromeTraceSink::instant(unsigned tid, const char* name, const char* cat,
                         Tick ts, std::initializer_list<TraceArg> args)
{
    PROF_SCOPE(obs_.prof, TraceWrite);
    openEvent("i", ts);
    *os_ << ",\"tid\":" << tid << ",\"s\":\"t\",\"name\":";
    writeString(*os_, name);
    *os_ << ",\"cat\":";
    writeString(*os_, cat);
    writeArgs(args);
    closeEvent();
}

void
ChromeTraceSink::counter(const char* name, Tick ts,
                         std::initializer_list<TraceArg> series)
{
    PROF_SCOPE(obs_.prof, TraceWrite);
    openEvent("C", ts);
    *os_ << ",\"tid\":0,\"name\":";
    writeString(*os_, name);
    writeArgs(series);
    closeEvent();
}

} // namespace sdpcm
