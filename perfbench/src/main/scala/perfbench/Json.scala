package perfbench

/** Minimal JSON rendering for result records (no parsing needed). */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def value(v: Any): String = v match {
    case null | None          => "null"
    case Some(x)              => value(x)
    case s: String            => str(s)
    case b: Boolean           => b.toString
    case d: Double            =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      // full precision: the measured value with all its digits
      java.lang.Double.toString(d).replace("E", "e")
    case n: Int               => n.toString
    case n: Long              => n.toString
    case xs: Iterable[_]      => xs.map(value).mkString("[", ", ", "]")
    case Raw(s)               => s
    case other                => str(other.toString)
  }

  def obj(fields: (String, Any)*): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  /** Pre-rendered JSON spliced in verbatim. */
  final case class Raw(json: String)
}
